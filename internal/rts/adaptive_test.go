package rts

import (
	"testing"
)

// first is the head of a ranking.
func first(order []int, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return order[0], nil
}

func TestAdaptiveExploitsStaticMetadataInitially(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1} // pure exploitation
	idx, err := first(a.Rank(u, Context{}))
	if err != nil {
		t.Fatal(err)
	}
	// Without measurements the fastest static version (index 2) wins.
	if idx != 2 {
		t.Fatalf("initial selection = %d, want 2", idx)
	}
}

// TestAdaptiveEpsilonZeroNeverExplores: ε is the exploration
// probability as given, so at 0 the best-scoring feasible version heads
// every ranking.
func TestAdaptiveEpsilonZeroNeverExplores(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1}
	for i := 0; i < 1000; i++ {
		idx, err := first(a.Rank(u, Context{}))
		if err != nil {
			t.Fatal(err)
		}
		if idx != 2 {
			t.Fatalf("call %d ranked version %d first, want the fastest, 2", i, idx)
		}
	}
}

func TestAdaptiveLearnsFromMeasurements(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1}
	// The statically fastest version turns out slow in reality; the
	// middle version measures fast.
	for i := 0; i < 5; i++ {
		a.Observe(2, 0.5)
		a.Observe(1, 0.01)
	}
	idx, err := first(a.Rank(u, Context{}))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("post-measurement selection = %d, want 1", idx)
	}
	ms := a.meas
	if len(ms[2]) != 5 || len(ms[1]) != 5 {
		t.Fatalf("measurements = %v", ms)
	}
}

func TestAdaptiveWindowBounded(t *testing.T) {
	a := &Adaptive{Window: 3}
	for i := 0; i < 10; i++ {
		a.Observe(0, float64(i))
	}
	ms := a.meas[0]
	if len(ms) != 3 || ms[0] != 7 {
		t.Fatalf("window = %v", ms)
	}
}

func TestAdaptiveRespectsCoreBudget(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1}
	idx, err := first(a.Rank(u, Context{AvailableCores: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if u.Versions[idx].Meta.Threads > 5 {
		t.Fatalf("selected %d threads under a 5-core budget", u.Versions[idx].Meta.Threads)
	}
	solo := u
	solo.Versions = solo.Versions[2:] // only the 40-thread version
	if _, err := first(a.Rank(solo, Context{AvailableCores: 4})); err == nil {
		t.Error("no feasible version should error")
	}
}

func TestAdaptiveExploration(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 1, Seed: 7} // pure exploration
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		idx, err := first(a.Rank(u, Context{}))
		if err != nil {
			t.Fatal(err)
		}
		seen[idx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("exploration visited %d/3 versions", len(seen))
	}
}

func TestAdaptiveWithRuntimeInvokeTimed(t *testing.T) {
	u, _ := boundUnit(t)
	a := &Adaptive{Epsilon: 0, Seed: 1}
	rt, err := New(u, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		idx, elapsed, err := InvokeTimed(rt, a)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed < 0 {
			t.Fatal("negative elapsed time")
		}
		if len(a.meas[idx]) == 0 {
			t.Fatal("measurement not recorded")
		}
	}
	if rt.Stats().Invocations != 3 {
		t.Fatalf("stats = %+v", rt.Stats())
	}
	if a.Name() != "adaptive" {
		t.Fatal("name wrong")
	}
}
