// Package rts is the runtime-system component of the framework (label
// 6 in the paper's Fig. 3): when a multi-versioned region is invoked,
// the runtime selects one of its code versions according to a
// dynamically configurable policy, executes it, and records invocation
// statistics.
//
// Policies implement the strategies sketched in the paper: a
// user-supplied weighted sum over the objective metadata, constraint
// policies ("fastest within a resource budget"), and adaptation to a
// changing number of available cores. The policy may be swapped at any
// time — the trade-off decision is deferred until execution, which is
// the point of multi-versioning.
//
// The runtime is fault tolerant: a policy is its full preference
// ranking, so when a selected version's entry fails the invocation
// falls back to the next-ranked version instead of failing the
// caller. A per-version circuit breaker (health.go)
// quarantines versions that fail repeatedly, and an injectable fault
// model (faults.go) makes the whole machinery testable end-to-end.
package rts

import (
	"errors"
	"fmt"
	"sync"

	"autotune/internal/multiversion"
)

// Context carries the runtime conditions a policy may react to.
type Context struct {
	// AvailableCores caps the thread count of eligible versions;
	// 0 means unrestricted.
	AvailableCores int
}

// Policy is a runtime selection strategy, and a policy is its
// ranking: Rank orders the versions the policy will run, most preferred
// first. Invoke executes the first and, when its entry fails, falls
// back down the rest, so a policy that should not fall back returns a
// one-element ranking. A ranking lists each version at most once.
type Policy interface {
	// Name identifies the policy in logs and stats.
	Name() string
	// Rank returns version indices in descending preference.
	Rank(u *multiversion.Unit, ctx Context) ([]int, error)
}

// feasibleVersions keeps, in place and in order, the versions of order
// that fit the context's core budget, and fails when none does. Every
// policy that caps by cores filters through it.
func feasibleVersions(u *multiversion.Unit, ctx Context, order []int) ([]int, error) {
	fit := order[:0]
	for _, i := range order {
		if ctx.AvailableCores <= 0 || u.Versions[i].Meta.Threads <= ctx.AvailableCores {
			fit = append(fit, i)
		}
	}
	if len(fit) == 0 {
		return nil, fmt.Errorf("rts: no version fits %d cores", ctx.AvailableCores)
	}
	return fit, nil
}

// allVersions is every version index of u, in index order.
func allVersions(u *multiversion.Unit) []int {
	order := make([]int, len(u.Versions))
	for i := range order {
		order[i] = i
	}
	return order
}

// WeightedSum implements the paper's Σ w_c·f_c(v) selection.
type WeightedSum struct {
	Weights []float64
}

// Name implements Policy.
func (p WeightedSum) Name() string { return "weighted-sum" }

// Rank implements Policy: the versions that fit the core budget by
// ascending weighted score, ties by index. The objectives are
// normalised over the versions that fit, so under a budget those are
// ranked as a table of their own.
func (p WeightedSum) Rank(u *multiversion.Unit, ctx Context) ([]int, error) {
	if ctx.AvailableCores <= 0 {
		return u.RankWeighted(p.Weights)
	}
	fit, err := feasibleVersions(u, ctx, allVersions(u))
	if err != nil {
		return nil, err
	}
	sub := &multiversion.Unit{ObjectiveNames: u.ObjectiveNames, Versions: make([]multiversion.Version, len(fit))}
	for k, i := range fit {
		sub.Versions[k] = u.Versions[i]
	}
	order, err := sub.RankWeighted(p.Weights)
	if err != nil {
		return nil, err
	}
	for k, j := range order {
		order[k] = fit[j]
	}
	return order, nil
}

// FastestWithinBudget prefers the lowest value of the Optimize
// objective among versions whose Constrain objective stays within
// Budget.
type FastestWithinBudget struct {
	Optimize  int
	Constrain int
	Budget    float64
}

// Name implements Policy.
func (p FastestWithinBudget) Name() string { return "fastest-within-budget" }

// Rank implements Policy: within-budget versions by ascending Optimize
// objective, then the rest by ascending Constrain objective, filtered
// to the core budget.
func (p FastestWithinBudget) Rank(u *multiversion.Unit, ctx Context) ([]int, error) {
	order, err := u.RankConstrained(p.Optimize, p.Constrain, p.Budget)
	if err != nil {
		return nil, err
	}
	return feasibleVersions(u, ctx, order)
}

// Fixed always runs one version, whatever the core budget — useful for
// pinning and tests.
type Fixed struct{ Index int }

// Name implements Policy.
func (p Fixed) Name() string { return "fixed" }

// Rank implements Policy. A pinned version has no fallback: failing it
// fails the invocation.
func (p Fixed) Rank(u *multiversion.Unit, ctx Context) ([]int, error) {
	if p.Index < 0 || p.Index >= len(u.Versions) {
		return nil, fmt.Errorf("rts: fixed index %d out of range", p.Index)
	}
	return []int{p.Index}, nil
}

// EventType classifies runtime fault-handling events.
type EventType int

const (
	// EventFailure is one version-entry failure (possibly recovered
	// by fallback).
	EventFailure EventType = iota
	// EventFallback is an invocation completed by a version other
	// than the policy's first choice.
	EventFallback
	// EventQuarantine is a version entering (or, after a failed
	// probe, re-entering) quarantine.
	EventQuarantine
	// EventReadmit is a quarantined version re-admitted after a
	// successful probe.
	EventReadmit
)

// String returns the event label.
func (t EventType) String() string {
	switch t {
	case EventFailure:
		return "failure"
	case EventFallback:
		return "fallback"
	case EventQuarantine:
		return "quarantine"
	case EventReadmit:
		return "readmit"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is a structured trace record of the runtime's fault handling.
type Event struct {
	Type    EventType
	Region  string
	Version int
	// Attempt is the 0-based position of the version in the policy
	// ranking for this invocation.
	Attempt int
	// Err is the triggering error (EventFailure only).
	Err error
}

// ErrAllQuarantined is returned (wrapped) when every version the
// policy ranked is sitting out a quarantine cool-down.
var ErrAllQuarantined = errors.New("all versions quarantined")

// InvocationStats records which versions ran and how the runtime's
// fault handling intervened.
type InvocationStats struct {
	// Invocations counts successfully completed invocations.
	Invocations int
	// PerVersion counts completed invocations per version index.
	PerVersion map[int]int
	// Failures counts version-entry failures observed, including
	// those recovered by fallback.
	Failures int
	// PerVersionFailures counts entry failures per version index.
	PerVersionFailures map[int]int
	// Fallbacks counts invocations completed by a version other than
	// the policy's first choice.
	Fallbacks int
	// Quarantines counts quarantine transitions (including failed
	// probes re-entering cool-down).
	Quarantines int
	// Readmissions counts versions re-admitted after a successful
	// probe.
	Readmissions int
}

func newInvocationStats() *InvocationStats {
	return &InvocationStats{PerVersion: map[int]int{}, PerVersionFailures: map[int]int{}}
}

// clone deep-copies the stats so callers cannot mutate internal maps.
func (s InvocationStats) clone() InvocationStats {
	out := s
	out.PerVersion = make(map[int]int, len(s.PerVersion))
	for k, v := range s.PerVersion {
		out.PerVersion[k] = v
	}
	out.PerVersionFailures = make(map[int]int, len(s.PerVersionFailures))
	for k, v := range s.PerVersionFailures {
		out.PerVersionFailures[k] = v
	}
	return out
}

// Runtime dispatches invocations of a multi-versioned region.
type Runtime struct {
	mu      sync.Mutex
	unit    *multiversion.Unit
	policy  Policy
	ctx     Context
	stats   *InvocationStats
	health  *healthTracker
	faults  *FaultInjector
	onEvent func(Event)
}

// New builds a runtime for the unit with the given initial policy.
// Every version must have an executable entry bound.
func New(u *multiversion.Unit, p Policy) (*Runtime, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	for i, v := range u.Versions {
		if v.Entry == nil {
			return nil, fmt.Errorf("rts: version %d has no entry bound", i)
		}
	}
	if p == nil {
		return nil, errors.New("rts: nil policy")
	}
	return &Runtime{
		unit:   u,
		policy: p,
		stats:  newInvocationStats(),
		health: newHealthTracker(HealthConfig{}),
	}, nil
}

// SetPolicy swaps the selection policy; takes effect on the next
// invocation.
func (r *Runtime) SetPolicy(p Policy) error {
	if p == nil {
		return errors.New("rts: nil policy")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy = p
	return nil
}

// SetContext updates the runtime conditions (e.g. a shrunk core
// budget).
func (r *Runtime) SetContext(ctx Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctx = ctx
}

// SetHealthConfig replaces the circuit-breaker configuration. Existing
// quarantine state is kept.
func (r *Runtime) SetHealthConfig(cfg HealthConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health.cfg = cfg.withDefaults()
}

// SetFaultInjector attaches (or, with nil, removes) a fault model that
// every entry attempt is rolled through.
func (r *Runtime) SetFaultInjector(f *FaultInjector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = f
}

// SetEventHook installs a tracing callback for fault-handling events.
// The hook runs synchronously on the invoking goroutine without
// runtime locks held; it must be fast and must not call back into the
// runtime's Invoke path.
func (r *Runtime) SetEventHook(hook func(Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvent = hook
}

// Health snapshots the per-version circuit-breaker state.
func (r *Runtime) Health() map[int]VersionHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health.snapshot()
}

// Invoke ranks the versions under the current policy and context and
// executes the first that is not sitting out a quarantine cooldown,
// returning the executed index. If its entry fails, the invocation
// falls back to the next eligible version of the ranking; only when
// every eligible version fails does the caller see an error. Each
// attempt rolls the fault injector before it runs the entry. The
// injector and the event hook in force when the invocation starts serve
// all of its attempts.
func (r *Runtime) Invoke() (int, error) {
	r.mu.Lock()
	policy, ctx, faults, hook := r.policy, r.ctx, r.faults, r.onEvent
	r.health.tick++
	r.mu.Unlock()

	ranking, err := rankVersions(policy, r.unit, ctx)
	if err != nil {
		return 0, err
	}

	r.mu.Lock()
	eligible := make([]int, 0, len(ranking))
	for _, idx := range ranking {
		if r.health.eligible(idx) {
			eligible = append(eligible, idx)
		}
	}
	r.mu.Unlock()
	if len(eligible) == 0 {
		return 0, fmt.Errorf("rts: %w", ErrAllQuarantined)
	}

	for attempt, idx := range eligible {
		err = faults.Apply(idx)
		if err == nil {
			err = r.unit.Versions[idx].Entry()
		}
		r.mu.Lock()
		if err == nil {
			fellBack := idx != ranking[0]
			readmitted := r.health.success(idx)
			r.stats.Invocations++
			r.stats.PerVersion[idx]++
			if fellBack {
				r.stats.Fallbacks++
			}
			if readmitted {
				r.stats.Readmissions++
			}
			r.mu.Unlock()
			if hook != nil {
				if readmitted {
					hook(Event{Type: EventReadmit, Region: r.unit.Region, Version: idx, Attempt: attempt})
				}
				if fellBack {
					hook(Event{Type: EventFallback, Region: r.unit.Region, Version: idx, Attempt: attempt})
				}
			}
			return idx, nil
		}
		quarantined := r.health.failure(idx)
		r.stats.Failures++
		r.stats.PerVersionFailures[idx]++
		if quarantined {
			r.stats.Quarantines++
		}
		r.mu.Unlock()
		if hook != nil {
			hook(Event{Type: EventFailure, Region: r.unit.Region, Version: idx, Attempt: attempt, Err: err})
			if quarantined {
				hook(Event{Type: EventQuarantine, Region: r.unit.Region, Version: idx, Attempt: attempt})
			}
		}
	}
	return 0, fmt.Errorf("rts: all %d eligible versions failed, last: rts: version %d failed: %w", len(eligible), eligible[len(eligible)-1], err)
}

// rankVersions resolves the policy's preference order and checks that
// it names at least one version and only versions of the unit.
func rankVersions(p Policy, u *multiversion.Unit, ctx Context) ([]int, error) {
	order, err := p.Rank(u, ctx)
	if err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("rts: policy %s ranked no versions", p.Name())
	}
	for _, idx := range order {
		if idx < 0 || idx >= len(u.Versions) {
			return nil, fmt.Errorf("rts: policy %s selected invalid version %d", p.Name(), idx)
		}
	}
	return order, nil
}

// Stats returns a copy of the invocation statistics.
func (r *Runtime) Stats() InvocationStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.clone()
}
