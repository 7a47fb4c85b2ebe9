package rts

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"autotune/internal/multiversion"
	"autotune/internal/skeleton"
)

// flakyUnit builds the standard three-version table where selected
// versions fail on demand. failing maps version index -> error to
// return; entries append their index to attempts.
func flakyUnit(t *testing.T, failing map[int]error) (*multiversion.Unit, *[]int) {
	t.Helper()
	u := &multiversion.Unit{
		Region:         "mm#0",
		ObjectiveNames: []string{"time", "resources"},
		Versions: []multiversion.Version{
			{Meta: multiversion.Meta{Config: skeleton.Config{64, 1}, Tiles: []int64{64}, Threads: 1, Objectives: []float64{1.0, 1.0}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{32, 10}, Tiles: []int64{32}, Threads: 10, Objectives: []float64{0.12, 1.2}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{16, 40}, Tiles: []int64{16}, Threads: 40, Objectives: []float64{0.04, 1.6}}},
		},
	}
	attempts := &[]int{}
	var mu sync.Mutex
	for i := range u.Versions {
		idx := i
		u.Versions[i].Entry = func() error {
			mu.Lock()
			*attempts = append(*attempts, idx)
			mu.Unlock()
			return failing[idx]
		}
	}
	return u, attempts
}

var errBoom = errors.New("boom")

func TestInvokeFallsBackOnEntryFailure(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{2: errBoom})
	rt, err := New(u, WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := rt.Invoke()
	if err != nil {
		t.Fatalf("fallback did not recover: %v", err)
	}
	if idx != 1 {
		t.Fatalf("fallback selected %d, want 1 (next-ranked)", idx)
	}
	if got := *attempts; len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("attempt order = %v, want [2 1]", got)
	}
	st := rt.Stats()
	if st.Invocations != 1 || st.PerVersion[1] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Failures != 1 || st.PerVersionFailures[2] != 1 || st.Fallbacks != 1 {
		t.Fatalf("failure stats = %+v", st)
	}
}

func TestFallbackOrderFollowsWeightedSum(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{0: errBoom, 1: errBoom, 2: errBoom})
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	if _, err := rt.Invoke(); err == nil {
		t.Fatal("all-versions failure swallowed")
	}
	// Time-priority ranking: fastest first.
	if got := *attempts; len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("attempt order = %v, want [2 1 0]", got)
	}
	st := rt.Stats()
	if st.Invocations != 0 || st.Failures != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFallbackOrderFollowsFastestWithinBudget(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{0: errBoom, 1: errBoom, 2: errBoom})
	rt, _ := New(u, FastestWithinBudget{Optimize: 0, Constrain: 1, Budget: 1.3})
	if _, err := rt.Invoke(); err == nil {
		t.Fatal("all-versions failure swallowed")
	}
	// Within budget 1.3 by time: v1 then v0; out-of-budget v2 last.
	if got := *attempts; len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("attempt order = %v, want [1 0 2]", got)
	}
}

// singleChoice ranks one version: single-attempt semantics, no
// fallback.
type singleChoice struct{ idx int }

func (p singleChoice) Name() string { return "single-choice" }
func (p singleChoice) Rank(u *multiversion.Unit, ctx Context) ([]int, error) {
	return []int{p.idx}, nil
}

func TestOneElementRankingHasNoFallback(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{2: errBoom})
	rt, _ := New(u, singleChoice{idx: 2})
	if _, err := rt.Invoke(); err == nil {
		t.Fatal("single-attempt failure swallowed")
	}
	if len(*attempts) != 1 {
		t.Fatalf("attempts = %v, want exactly one", *attempts)
	}
}

func TestQuarantineProbeAndReadmission(t *testing.T) {
	failing := map[int]error{0: errBoom}
	u, _ := flakyUnit(t, failing)
	rt, _ := New(u, Fixed{Index: 0})
	rt.SetHealthConfig(HealthConfig{FailureThreshold: 2, Cooldown: 3})

	// Two failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := rt.Invoke(); err == nil {
			t.Fatal("failure swallowed")
		}
	}
	h := rt.Health()[0]
	if !h.Quarantined || h.ConsecutiveFailures != 2 {
		t.Fatalf("health after threshold = %+v", h)
	}

	// During cool-down the only version is ineligible.
	for i := 0; i < 2; i++ {
		_, err := rt.Invoke()
		if !errors.Is(err, ErrAllQuarantined) {
			t.Fatalf("cool-down invoke %d: %v, want ErrAllQuarantined", i, err)
		}
	}

	// Cool-down expired: the next invocation probes. Heal the entry
	// so the probe succeeds and the version is re-admitted.
	delete(failing, 0)
	idx, err := rt.Invoke()
	if err != nil || idx != 0 {
		t.Fatalf("probe = %d, %v", idx, err)
	}
	if h := rt.Health()[0]; h.Quarantined || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after probe = %+v", h)
	}
	st := rt.Stats()
	if st.Quarantines != 1 || st.Readmissions != 1 || st.Failures != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailedProbeReQuarantines(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{0: errBoom})
	rt, _ := New(u, Fixed{Index: 0})
	rt.SetHealthConfig(HealthConfig{FailureThreshold: 1, Cooldown: 2})

	if _, err := rt.Invoke(); err == nil { // quarantined immediately
		t.Fatal("failure swallowed")
	}
	if _, err := rt.Invoke(); !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("cool-down: %v", err)
	}
	if _, err := rt.Invoke(); err == nil || errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("probe should run the entry and fail: %v", err)
	}
	if got := len(*attempts); got != 2 {
		t.Fatalf("entry ran %d times, want 2 (initial + probe)", got)
	}
	st := rt.Stats()
	if st.Quarantines != 2 {
		t.Fatalf("failed probe did not re-quarantine: %+v", st)
	}
	// Back in cool-down right after the failed probe.
	if _, err := rt.Invoke(); !errors.Is(err, ErrAllQuarantined) {
		t.Fatalf("post-probe cool-down: %v", err)
	}
}

func TestDisabledBreakerNeverQuarantines(t *testing.T) {
	u, _ := flakyUnit(t, map[int]error{0: errBoom})
	rt, _ := New(u, Fixed{Index: 0})
	rt.SetHealthConfig(HealthConfig{FailureThreshold: -1})
	for i := 0; i < 10; i++ {
		if _, err := rt.Invoke(); errors.Is(err, ErrAllQuarantined) {
			t.Fatal("disabled breaker quarantined")
		}
	}
	if st := rt.Stats(); st.Quarantines != 0 || st.Failures != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEventHookSequence(t *testing.T) {
	u, _ := flakyUnit(t, map[int]error{2: errBoom})
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	rt.SetHealthConfig(HealthConfig{FailureThreshold: 1, Cooldown: 100})
	var events []Event
	rt.SetEventHook(func(e Event) { events = append(events, e) })

	if _, err := rt.Invoke(); err != nil {
		t.Fatal(err)
	}
	want := []EventType{EventFailure, EventQuarantine, EventFallback}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i, e := range events {
		if e.Type != want[i] {
			t.Fatalf("event %d = %v, want %v", i, e.Type, want[i])
		}
		if e.Region != "mm#0" {
			t.Fatalf("event region = %q", e.Region)
		}
	}
	if events[0].Version != 2 || events[0].Err == nil {
		t.Fatalf("failure event = %+v", events[0])
	}
	if events[2].Version != 1 || events[2].Attempt != 1 {
		t.Fatalf("fallback event = %+v", events[2])
	}
	if EventFailure.String() != "failure" || EventType(99).String() == "" {
		t.Error("event type labels wrong")
	}
}

func TestFaultInjectorDeterministicAndTargeted(t *testing.T) {
	roll := func() []bool {
		f := &FaultInjector{ErrorRate: 0.5, Versions: []int{1}, Seed: 42}
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, f.Apply(1) != nil)
		}
		return out
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fault sequences")
		}
	}
	f := &FaultInjector{ErrorRate: 1, Versions: []int{1}, Seed: 1}
	for i := 0; i < 16; i++ {
		if f.Apply(0) != nil {
			t.Fatal("untargeted version got a fault")
		}
	}
	if err := f.Apply(1); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted fault = %v", err)
	}
	inj, _ := f.Counts()
	if inj != 1 {
		t.Fatalf("injected count = %d", inj)
	}
	var nilInj *FaultInjector
	if nilInj.Apply(0) != nil {
		t.Fatal("nil injector injected")
	}
}

// TestInjectedFaultAcceptance is the issue's acceptance scenario: a
// 30% per-invocation fault rate on the fastest (first-ranked) version
// over 1000 invocations completes with zero caller-visible errors,
// quarantines the faulty version along the way, and surfaces fallback
// and failure counts in InvocationStats.
func TestInjectedFaultAcceptance(t *testing.T) {
	u, _ := flakyUnit(t, nil)
	rt, err := New(u, WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultInjector(&FaultInjector{ErrorRate: 0.3, Versions: []int{2}, Seed: 7})

	for i := 0; i < 1000; i++ {
		if _, err := rt.Invoke(); err != nil {
			t.Fatalf("invocation %d surfaced an error: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Invocations != 1000 {
		t.Fatalf("invocations = %d", st.Invocations)
	}
	if st.Failures == 0 || st.PerVersionFailures[2] != st.Failures {
		t.Fatalf("failure counters = %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("no fallbacks recorded: %+v", st)
	}
	if st.Quarantines == 0 {
		t.Fatalf("faulty version never quarantined: %+v", st)
	}
	if st.PerVersion[1] == 0 {
		t.Fatalf("fallback version never ran: %+v", st)
	}
}

func TestConcurrentInvokeWithInjectedFaults(t *testing.T) {
	u, _ := flakyUnit(t, nil)
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	rt.SetFaultInjector(&FaultInjector{ErrorRate: 0.3, Versions: []int{1, 2}, Seed: 3})
	rt.SetEventHook(func(Event) {})

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := rt.Invoke(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	// Version 0 never fails and never quarantines, so every
	// invocation must complete.
	for err := range errs {
		t.Fatalf("concurrent invocation failed: %v", err)
	}
	if st := rt.Stats(); st.Invocations != workers*perWorker {
		t.Fatalf("invocations = %d, want %d", st.Invocations, workers*perWorker)
	}
}

// TestFallbackStatsAcrossQuarantine: a first-ranked version that always
// fails is tried until the breaker quarantines it, and every invocation
// completes by falling back to the next-ranked version.
func TestFallbackStatsAcrossQuarantine(t *testing.T) {
	u, attempts := flakyUnit(t, map[int]error{2: errBoom})
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	rt.SetHealthConfig(HealthConfig{FailureThreshold: 2, Cooldown: 1000})
	for i := 0; i < 3; i++ {
		idx, err := rt.Invoke()
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if idx != 1 {
			t.Fatalf("fallback selected %d, want 1", idx)
		}
	}
	st := rt.Stats()
	if st.Invocations != 3 || st.PerVersion[1] != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// The first two invocations attempt the broken version; the
	// breaker then quarantines it, so the third never tries it.
	if st.Failures != 2 || st.Fallbacks != 3 || st.Quarantines != 1 {
		t.Fatalf("failure stats = %+v", st)
	}
	if got := *attempts; !slices.Equal(got, []int{2, 1, 2, 1, 1}) {
		t.Fatalf("attempt order = %v, want [2 1 2 1 1]", got)
	}
	if h := rt.Health()[2]; !h.Quarantined {
		t.Fatalf("broken version not quarantined: %+v", h)
	}
}

func TestStatsCloneIsIndependent(t *testing.T) {
	u, _ := flakyUnit(t, map[int]error{2: errBoom})
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	if _, err := rt.Invoke(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	st.PerVersionFailures[2] = 99
	st.PerVersion[1] = 99
	fresh := rt.Stats()
	if fresh.PerVersionFailures[2] != 1 || fresh.PerVersion[1] != 1 {
		t.Fatal("Stats leaked internal maps")
	}
}

func TestAdaptiveRank(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1}
	order, err := a.Rank(u, Context{})
	if err != nil {
		t.Fatal(err)
	}
	// Static metadata: ascending time = [2 1 0].
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("rank = %v, want [2 1 0]", order)
	}
	// Measurements override the static order.
	for i := 0; i < 5; i++ {
		a.Observe(2, 0.5)
		a.Observe(1, 0.01)
	}
	order, _ = a.Rank(u, Context{})
	if order[0] != 1 {
		t.Fatalf("post-measurement rank = %v, want 1 first", order)
	}
	// Exploration keeps the ranking a permutation of the feasible set.
	e := &Adaptive{Epsilon: 1, Seed: 7}
	firsts := map[int]bool{}
	for i := 0; i < 100; i++ {
		order, err := e.Rank(u, Context{})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, idx := range order {
			if seen[idx] {
				t.Fatalf("rank %v repeats a version", order)
			}
			seen[idx] = true
		}
		if len(order) != 3 {
			t.Fatalf("rank = %v", order)
		}
		firsts[order[0]] = true
	}
	if len(firsts) != 3 {
		t.Fatalf("exploration first choices = %v, want all 3", firsts)
	}
	// Core budget filters the ranking.
	order, err = a.Rank(u, Context{AvailableCores: 5})
	if err != nil || len(order) != 1 || order[0] != 0 {
		t.Fatalf("restricted rank = %v, %v", order, err)
	}
	if _, err := a.Rank(&multiversion.Unit{Region: "r", ObjectiveNames: []string{"t"},
		Versions: u.Versions[2:]}, Context{AvailableCores: 4}); err == nil {
		t.Error("no feasible version should error")
	}
}
