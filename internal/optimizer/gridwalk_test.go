package optimizer

import (
	"encoding/json"
	"runtime"
	"sort"
	"testing"

	"autotune/internal/skeleton"
)

// TestStridedOrderIsPermutation: the coprime-strided visit order is a
// permutation of 0..n-1 for a sweep of sizes.
func TestStridedOrderIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000, 1024} {
		order := stridedOrder(n)
		if len(order) != n {
			t.Fatalf("n=%d: len=%d", n, len(order))
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("n=%d: not a permutation at %d", n, i)
			}
			seen[i] = true
		}
	}
	if stridedOrder(0) != nil {
		t.Fatal("stridedOrder(0) != nil")
	}
}

// TestGridWalkerEarlyCoverage: a truncated prefix of the walk must
// already spread across the first dimension — the property that makes
// a budget-capped grid contender useful. A lexicographic sweep would
// pin the first dimension for the whole prefix.
func TestGridWalkerEarlyCoverage(t *testing.T) {
	cfg := StrategyConfig{Options: Options{PopSize: 8}.withDefaults(), RandomBudget: 256}
	cfg.Options.PopSize = 8
	prefix := gridWalk(schafferSpace(), cfg, 0)[:16]
	vals := map[int64]bool{}
	for _, c := range prefix {
		vals[c[0]] = true
	}
	if len(vals) < 8 {
		t.Fatalf("first 16 grid points hold only %d distinct first-dimension values", len(vals))
	}
}

// TestGridStrategyRunsAndRespectsBudget: the registered strategy
// sweeps at most RandomBudget configurations, deterministically.
func TestGridStrategyRunsAndRespectsBudget(t *testing.T) {
	run := func() *Result {
		eval := newFuncEvaluator(schaffer)
		cfg := StrategyConfig{Options: Options{PopSize: 8, Seed: 3}, RandomBudget: 100}
		res, err := Run(schafferSpace(), eval, Spec{Strategy: "grid", Config: cfg}, Control{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations == 0 || res.Evaluations > 100 {
			t.Fatalf("grid consumed %d evaluations, budget 100", res.Evaluations)
		}
		if len(res.Front) == 0 {
			t.Fatal("grid produced no front")
		}
		return res
	}
	a, _ := json.Marshal(run().Front)
	b, _ := json.Marshal(run().Front)
	if string(a) != string(b) {
		t.Fatal("grid sweep is not deterministic")
	}
}

// TestGridWalkerPointsScaleWithBudget: the per-dimension resolution
// follows the budget and clamps to the span.
func TestGridWalkerPointsScaleWithBudget(t *testing.T) {
	space := schafferSpace() // dims: 2001 x 11
	p := gridWalkerPoints(space, 100)
	if p[0] != 10 || p[1] != 10 {
		t.Fatalf("points(100) = %v, want [10 10]", p)
	}
	p = gridWalkerPoints(space, 3)
	if p[0] != 2 {
		t.Fatalf("points(3) = %v, want the floor of 2", p)
	}
	tiny := skeleton.Space{Params: []skeleton.Param{{Name: "only", Min: 5, Max: 5}}}
	g, err := RegularGrid(tiny, gridWalkerPoints(tiny, 100))
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("1-value dimension produced %d grid points", g.Size())
	}
}

// TestGridRacesDeterministically: a race that includes the grid
// contender (the default set does, now) stays byte-identical across
// GOMAXPROCS.
func TestGridRacesDeterministically(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rr, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), RaceOptions{
			Strategies:   []string{"grid", "random", "rs-gde3"},
			Interval:     2,
			Budget:       120,
			MinSurvivors: 1,
		}, Control{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(rr.Standings))
		for _, s := range rr.Standings {
			names = append(names, s.Strategy)
		}
		sort.Strings(names)
		if names[0] != "grid" {
			t.Fatalf("grid missing from standings: %v", names)
		}
		got, _ := json.Marshal(rr.Front)
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("GOMAXPROCS=%d changes the grid race front", procs)
		}
	}
}
