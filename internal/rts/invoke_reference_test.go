package rts

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"autotune/internal/multiversion"
)

// invokeCase is one Invoke scenario decoded from fuzz bytes: a version
// table whose entries fail on a per-version schedule, a policy, a
// circuit-breaker configuration, a seeded fault injector and one byte
// per invocation.
type invokeCase struct {
	u      *multiversion.Unit
	kind   int // 0 weighted sum, 1 fastest within budget, 2 adaptive, 3 fixed
	w      []float64
	opt    int
	con    int
	budget float64
	fixed  int
	health HealthConfig
	// faults is nil for no injector; the reference rolls a twin built
	// from the same fields.
	faults *FaultInjector
	// fail holds per version a bit per attempt of its entry, mod 8:
	// set bits fail.
	fail  []byte
	calls []byte
}

// invokeCores are the core budgets a call byte can select; the first
// three keep the budget of the call before.
var invokeCores = []int{-1, -1, -1, 0, 1, 4, 10, 16}

// decodeInvokeCase reads a header of nine bytes — version and objective
// count, policy, policy parameter, budget, failure threshold, cooldown,
// injector rates, injector targets, injector seed — then one record per
// version: threads (1-16), one byte per objective and its entry's
// failure schedule. The remaining bytes, at most 96, are the calls.
func decodeInvokeCase(data []byte) (invokeCase, bool) {
	if len(data) < 9 {
		return invokeCase{}, false
	}
	n, m := 1+int(data[0]&7)%5, 1+int(data[0]>>3)%3
	c := invokeCase{
		kind:   int(data[1]) % 4,
		opt:    int(data[2]) % m,
		con:    int(data[2]>>2) % m,
		fixed:  int(data[2])%(n+2) - 1,
		budget: float64(data[3]%40)/4 - 1,
		// Thresholds -1 (breaker off) to 4 and cooldowns -1 to 5; 0
		// takes the defaults.
		health: HealthConfig{FailureThreshold: int(data[4])%6 - 1, Cooldown: int(data[5])%7 - 1},
	}
	for k := 0; k < m; k++ {
		c.w = append(c.w, float64((int(data[2])>>(2*k))%5)/4)
	}
	if r := data[6] % 5; r > 0 {
		c.faults = &FaultInjector{ErrorRate: float64(r) / 4, Seed: int64(data[8])}
		if data[6]&0x8 != 0 {
			c.faults.LatencyRate = 0.5
		}
		if mask := data[7] & (1<<n - 1); mask != 0 {
			c.faults.Versions = []int{}
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					c.faults.Versions = append(c.faults.Versions, i)
				}
			}
		}
	}
	c.u = &multiversion.Unit{Region: "fuzz", ObjectiveNames: []string{"time", "resources", "energy"}[:m]}
	rec := data[9:]
	for i := 0; i < n; i++ {
		if len(rec) < m+2 {
			return invokeCase{}, false
		}
		v := multiversion.Version{Meta: multiversion.Meta{Threads: 1 + int(rec[0])%16}}
		for k := 1; k <= m; k++ {
			v.Meta.Objectives = append(v.Meta.Objectives, float64(rec[k]%32)/4)
		}
		c.u.Versions = append(c.u.Versions, v)
		c.fail = append(c.fail, rec[m+1])
		rec = rec[m+2:]
	}
	c.calls = rec[:min(len(rec), 96)]
	return c, len(c.calls) > 0
}

// twin is an injector with the same settings and a fresh schedule.
func twin(f *FaultInjector) *FaultInjector {
	if f == nil {
		return nil
	}
	return &FaultInjector{ErrorRate: f.ErrorRate, Latency: f.Latency, LatencyRate: f.LatencyRate, Versions: f.Versions, Seed: f.Seed}
}

// refVersion is one version's circuit-breaker state in the reference.
type refVersion struct {
	fails       int
	quarantined bool
	probeAt     int
}

// refRuntime is the reference state machine for Invoke: the ranking of
// the policy, the quarantine filter, fallback down the ranking, the
// consecutive-failure threshold, cooldown counted in invocations, one
// probe per expired cooldown, and readmission or re-quarantine.
type refRuntime struct {
	c         invokeCase
	cores     int
	threshold int
	cooldown  int
	tick      int
	vs        map[int]*refVersion
	stats     InvocationStats
	events    []string
	faults    *FaultInjector
	attempts  []int
	meas      map[int][]float64
}

func newRefRuntime(c invokeCase) *refRuntime {
	r := &refRuntime{
		c:         c,
		threshold: c.health.FailureThreshold,
		cooldown:  c.health.Cooldown,
		vs:        map[int]*refVersion{},
		stats:     InvocationStats{PerVersion: map[int]int{}, PerVersionFailures: map[int]int{}},
		faults:    twin(c.faults),
		attempts:  make([]int, len(c.u.Versions)),
		meas:      map[int][]float64{},
	}
	if r.threshold == 0 {
		r.threshold = 3
	}
	if r.cooldown == 0 {
		r.cooldown = 20
	}
	return r
}

// rank is the policy's ranking by the brute-force references, nil when
// the policy has none.
func (r *refRuntime) rank() []int {
	c, ctx := r.c, Context{AvailableCores: r.cores}
	switch c.kind {
	case 0:
		return refWeighted(c.u, ctx, c.w)
	case 1:
		return refBudget(c.u, ctx, c.opt, c.con, c.budget)
	case 2:
		return refAdaptive(c.u, ctx, r.meas)
	default:
		if c.fixed < 0 || c.fixed >= len(c.u.Versions) {
			return nil
		}
		return []int{c.fixed}
	}
}

// state is version idx's breaker state, tracked from its first attempt.
func (r *refRuntime) state(idx int) *refVersion {
	if r.vs[idx] == nil {
		r.vs[idx] = &refVersion{}
	}
	return r.vs[idx]
}

// entry runs version idx's attempt: the injector first, then the
// entry's own schedule. It returns the failure's class, or "".
func (r *refRuntime) entry(idx int) string {
	if r.faults.Apply(idx) != nil {
		return "injected"
	}
	k := r.attempts[idx]
	r.attempts[idx]++
	if r.c.fail[idx]&(1<<(k%8)) != 0 {
		return "entry"
	}
	return ""
}

// invoke is one call: the executed index and the error class.
func (r *refRuntime) invoke() (int, string) {
	r.tick++
	ranking := r.rank()
	if len(ranking) == 0 {
		return 0, "rank"
	}
	var eligible []int
	for _, idx := range ranking {
		if s := r.vs[idx]; s == nil || !s.quarantined || r.tick >= s.probeAt {
			eligible = append(eligible, idx)
		}
	}
	if len(eligible) == 0 {
		return 0, "quarantined"
	}
	last := ""
	for attempt, idx := range eligible {
		class := r.entry(idx)
		s := r.state(idx)
		if class == "" {
			readmitted := s.quarantined
			*s = refVersion{}
			r.stats.Invocations++
			r.stats.PerVersion[idx]++
			if readmitted {
				r.stats.Readmissions++
				r.events = append(r.events, showEvent("readmit", idx, attempt, ""))
			}
			if idx != ranking[0] {
				r.stats.Fallbacks++
				r.events = append(r.events, showEvent("fallback", idx, attempt, ""))
			}
			return idx, ""
		}
		last = class
		s.fails++
		quarantined := s.quarantined || r.threshold > 0 && s.fails >= r.threshold
		if quarantined {
			s.quarantined = true
			s.probeAt = r.tick + r.cooldown
		}
		r.stats.Failures++
		r.stats.PerVersionFailures[idx]++
		r.events = append(r.events, showEvent("failure", idx, attempt, class))
		if quarantined {
			r.stats.Quarantines++
			r.events = append(r.events, showEvent("quarantine", idx, attempt, ""))
		}
	}
	return 0, "failed:" + last
}

// health is the breaker state as Runtime.Health reports it.
func (r *refRuntime) health() map[int]VersionHealth {
	out := map[int]VersionHealth{}
	for idx, s := range r.vs {
		h := VersionHealth{ConsecutiveFailures: s.fails, Quarantined: s.quarantined}
		if s.quarantined && s.probeAt > r.tick {
			h.ProbeIn = s.probeAt - r.tick
		}
		out[idx] = h
	}
	return out
}

// observe keeps the last eight measurements of a version, as Adaptive's
// default window does.
func (r *refRuntime) observe(idx int, x float64) {
	ms := append(r.meas[idx], x)
	r.meas[idx] = ms[max(0, len(ms)-8):]
}

// showEvent prints an event for comparison.
func showEvent(typ string, version, attempt int, class string) string {
	return fmt.Sprintf("%s v%d a%d %s", typ, version, attempt, class)
}

// failureClass names what made an entry attempt fail.
func failureClass(err error) string {
	if errors.Is(err, ErrInjected) {
		return "injected"
	}
	return "entry"
}

// invokeClass names the outcome of one Invoke.
func invokeClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrAllQuarantined):
		return "quarantined"
	case errors.Is(err, ErrInjected), errors.Is(err, errBoom):
		return "failed:" + failureClass(err)
	default:
		return "rank"
	}
}

// FuzzInvokeMatchesReference runs the real Runtime and the reference
// state machine side by side over the same calls. After every call the
// executed index, the error class, Stats, Health and the event-hook
// sequence must agree, and at the end the injector's counts.
func FuzzInvokeMatchesReference(f *testing.F) {
	// Three versions, weighted sum, default breaker, 50% faults on all.
	f.Add([]byte{0x0a, 0, 1, 0, 1, 1, 2, 0, 7,
		1, 4, 4, 0, 10, 1, 5, 0, 15, 0, 2, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Threshold 1, cooldown 2, the first-ranked entry failing every
	// other attempt: quarantine, probes, readmission, re-quarantine.
	f.Add([]byte{0x0a, 0, 1, 0, 2, 3, 0, 0, 0,
		1, 4, 4, 0, 10, 1, 5, 0, 15, 0, 2, 0x55,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Breaker off, fastest within budget, core budgets changing, faults
	// on versions 0 and 1.
	f.Add([]byte{10, 1, 4, 20, 0, 4, 3, 3, 9,
		2, 4, 20, 3, 0xff, 8, 40, 6, 2, 0x0f, 12, 16, 0, 0, 0,
		3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2})
	// Adaptive fed measurements, faults with latency draws on version 0.
	f.Add([]byte{3, 2, 0, 0, 3, 2, 0x0c, 1, 5,
		1, 3, 0x11, 4, 1, 0x22, 16, 0, 0x44, 2, 2, 0x81,
		0x18, 0x30, 0x48, 0x60, 0x78, 0x90, 0xa8, 0xc0, 0xd8, 0xf0, 0x08, 0x20})
	// Fixed out of range, then in range with faults on it.
	f.Add([]byte{1, 3, 0, 0, 1, 1, 4, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 1, 0, 3, 4, 4, 0, 2, 1, 1, 0, 4, 2, 0x33, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeInvokeCase(data)
		if !ok {
			return
		}
		ref := newRefRuntime(c)
		u := &multiversion.Unit{Region: c.u.Region, ObjectiveNames: c.u.ObjectiveNames, Versions: slices.Clone(c.u.Versions)}
		attempts := make([]int, len(u.Versions))
		for i := range u.Versions {
			i := i
			u.Versions[i].Entry = func() error {
				k := attempts[i]
				attempts[i]++
				if c.fail[i]&(1<<(k%8)) != 0 {
					return errBoom
				}
				return nil
			}
		}
		var a *Adaptive
		var p Policy
		switch c.kind {
		case 0:
			p = WeightedSum{Weights: c.w}
		case 1:
			p = FastestWithinBudget{Optimize: c.opt, Constrain: c.con, Budget: c.budget}
		case 2:
			// ε 0 never explores.
			a = &Adaptive{Epsilon: 0, Seed: 1}
			p = a
		default:
			p = Fixed{Index: c.fixed}
		}
		rt, err := New(u, p)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetHealthConfig(c.health)
		faults := twin(c.faults)
		rt.SetFaultInjector(faults)
		var events []string
		rt.SetEventHook(func(e Event) {
			if e.Region != u.Region {
				t.Fatalf("event %+v names region %q", e, e.Region)
			}
			class := ""
			if e.Type == EventFailure {
				class = failureClass(e.Err)
			}
			events = append(events, showEvent(e.Type.String(), e.Version, e.Attempt, class))
		})
		for call, b := range c.calls {
			if cores := invokeCores[b%8]; cores >= 0 {
				rt.SetContext(Context{AvailableCores: cores})
				ref.cores = cores
			}
			idx, err := rt.Invoke()
			wantIdx, wantClass := ref.invoke()
			if got := invokeClass(err); idx != wantIdx || got != wantClass {
				t.Fatalf("call %d: Invoke = %d, %q (%v); reference %d, %q", call, idx, got, err, wantIdx, wantClass)
			}
			if err == nil && a != nil {
				x := float64(b>>3) / 8
				a.Observe(idx, x)
				ref.observe(idx, x)
			}
			if got := rt.Stats(); !reflect.DeepEqual(got, ref.stats) {
				t.Fatalf("call %d: Stats = %+v; reference %+v", call, got, ref.stats)
			}
			if got, want := rt.Health(), ref.health(); !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: Health = %+v; reference %+v", call, got, want)
			}
			if !slices.Equal(events, ref.events) {
				t.Fatalf("call %d: events %q; reference %q", call, events, ref.events)
			}
		}
		gotErrs, gotSpikes := faults.Counts()
		wantErrs, wantSpikes := ref.faults.Counts()
		if gotErrs != wantErrs || gotSpikes != wantSpikes {
			t.Fatalf("injector counts %d, %d; reference %d, %d", gotErrs, gotSpikes, wantErrs, wantSpikes)
		}
	})
}
