package optimizer

import (
	"math"
	"sync"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// funcEvaluator adapts a plain function to objective.Evaluator for
// testing on synthetic problems with known Pareto fronts.
type funcEvaluator struct {
	mu    sync.Mutex
	fn    func(skeleton.Config) []float64
	seen  map[string][]float64
	names []string
}

func newFuncEvaluator(fn func(skeleton.Config) []float64) *funcEvaluator {
	return &funcEvaluator{fn: fn, seen: map[string][]float64{}, names: []string{"f1", "f2"}}
}

func (e *funcEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	out := make([][]float64, len(cfgs))
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, c := range cfgs {
		key := c.Key()
		if v, ok := e.seen[key]; ok {
			out[i] = v
			continue
		}
		v := e.fn(c)
		e.seen[key] = v
		out[i] = v
	}
	return out
}

func (e *funcEvaluator) ObjectiveNames() []string { return e.names }

func (e *funcEvaluator) Evaluations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.seen)
}

// schaffer is a discretized Schaffer problem: f1 = x², f2 = (x-2)²
// with x = cfg[0]/100. The Pareto set is x in [0, 2].
func schaffer(c skeleton.Config) []float64 {
	x := float64(c[0]) / 100
	return []float64{x * x, (x - 2) * (x - 2)}
}

// search runs the named strategy serially, without run control.
func search(name string, space skeleton.Space, eval objective.Evaluator, opt Options) (*Result, error) {
	return Run(space, eval, Spec{Strategy: name, Config: StrategyConfig{Options: opt}}, Control{})
}

// randomSearch is the paper's random baseline: budget draws from seed.
func randomSearch(space skeleton.Space, eval objective.Evaluator, budget int, seed int64) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "random", Config: StrategyConfig{Options: Options{Seed: seed}, RandomBudget: budget}}, Control{})
}

// bruteForce sweeps every configuration of grid, without run control.
func bruteForce(space skeleton.Space, eval objective.Evaluator, grid Grid) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "brute-force", Config: StrategyConfig{Grid: grid}}, Control{})
}

func schafferSpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "x", Min: -1000, Max: 1000},
		{Name: "pad", Min: 0, Max: 10}, // irrelevant dimension
	}}
}

func TestRSGDE3FindsSchafferFront(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	res, err := search("rs-gde3", schafferSpace(), eval, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, p := range res.Front {
		x := float64(p.Payload.(skeleton.Config)[0]) / 100
		if x < -0.2 || x > 2.2 {
			t.Errorf("front point x = %v outside Pareto set [0,2]", x)
		}
	}
	// Front members are mutually non-dominated.
	for i := range res.Front {
		for j := range res.Front {
			if i != j && pareto.Dominates(res.Front[i].Objectives, res.Front[j].Objectives) {
				t.Fatal("front contains dominated point")
			}
		}
	}
	if res.Evaluations <= 0 || res.Iterations <= 0 {
		t.Fatalf("metrics: E=%d iters=%d", res.Evaluations, res.Iterations)
	}
}

func TestRSGDE3Deterministic(t *testing.T) {
	a, _ := search("rs-gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 7})
	b, _ := search("rs-gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 7})
	if len(a.Front) != len(b.Front) || a.Evaluations != b.Evaluations {
		t.Fatalf("same seed differs: %d/%d vs %d/%d",
			len(a.Front), a.Evaluations, len(b.Front), b.Evaluations)
	}
}

func TestRSGDE3StopsOnStagnation(t *testing.T) {
	// Constant objective: the archive accepts one point and then never
	// improves; the run must stop after Stagnation iterations.
	eval := newFuncEvaluator(func(c skeleton.Config) []float64 { return []float64{1, 1} })
	res, err := search("rs-gde3", schafferSpace(), eval, Options{Seed: 3, Stagnation: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3 (stagnation window)", res.Iterations)
	}
	if len(res.Front) != 1 {
		t.Fatalf("front = %d points, want 1", len(res.Front))
	}
}

func TestRSGDE3HandlesFailedEvaluations(t *testing.T) {
	// Half the space is invalid (nil objectives).
	eval := newFuncEvaluator(func(c skeleton.Config) []float64 {
		if c[0] < 0 {
			return nil
		}
		return schaffer(c)
	})
	res, err := search("rs-gde3", schafferSpace(), eval, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("no front despite valid half-space")
	}
	for _, p := range res.Front {
		if p.Payload.(skeleton.Config)[0] < 0 {
			t.Fatal("front contains invalid configuration")
		}
	}
}

func TestGDE3AblationRuns(t *testing.T) {
	res, err := search("gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("plain GDE3 found nothing")
	}
}

func TestRandomBaseline(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	res, err := randomSearch(schafferSpace(), eval, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Evaluations > 200 {
		t.Fatalf("E = %d", res.Evaluations)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty random front")
	}
	if _, err := randomSearch(schafferSpace(), eval, -1, 4); err == nil {
		t.Error("negative budget should fail")
	}
}

func TestRegularGrid(t *testing.T) {
	space := skeleton.Space{Params: []skeleton.Param{
		{Name: "a", Min: 1, Max: 10},
		{Name: "b", Min: 0, Max: 1},
	}}
	g, err := RegularGrid(space, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(g[0]) != 4 || g[0][0] != 1 || g[0][3] != 10 {
		t.Fatalf("dim 0 grid = %v", g[0])
	}
	// b has only 2 distinct values; 5 requested points collapse to 2.
	if len(g[1]) != 2 {
		t.Fatalf("dim 1 grid = %v", g[1])
	}
	if g.Size() != 8 {
		t.Fatalf("size = %d", g.Size())
	}
	if _, err := RegularGrid(space, []int{4}); err == nil {
		t.Error("wrong dims should fail")
	}
	if _, err := RegularGrid(space, []int{0, 1}); err == nil {
		t.Error("zero points should fail")
	}
}

func TestBruteForce(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	space := schafferSpace()
	g, err := RegularGrid(space, []int{41, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := bruteForce(space, eval, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 41 {
		t.Fatalf("E = %d, want 41", res.Evaluations)
	}
	if len(res.AllPoints) != 41 {
		t.Fatalf("all points = %d", len(res.AllPoints))
	}
	// Every front point lies within the Pareto set x in [0,2].
	for _, p := range res.Front {
		x := float64(p.Payload.(skeleton.Config)[0]) / 100
		if x < 0 || x > 2 {
			t.Errorf("brute-force front x = %v", x)
		}
	}
}

func TestBruteForceGridMismatch(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	if _, err := bruteForce(schafferSpace(), eval, Grid{{1}}); err == nil {
		t.Error("grid dim mismatch should fail")
	}
}

// RS-GDE3 must clearly beat random search at equal evaluation budget —
// the paper's central Table VI comparison.
func TestRSGDE3BeatsRandomAtEqualBudget(t *testing.T) {
	evalA := newFuncEvaluator(schaffer)
	res, err := search("rs-gde3", schafferSpace(), evalA, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	evalB := newFuncEvaluator(schaffer)
	rnd, err := randomSearch(schafferSpace(), evalB, res.Evaluations, 11)
	if err != nil {
		t.Fatal(err)
	}
	hv := func(front []pareto.Point) float64 {
		var objs [][]float64
		for _, p := range front {
			objs = append(objs, p.Objectives)
		}
		v, err := pareto.NormalizedHypervolume(objs, []float64{0, 0}, []float64{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if hv(res.Front) < hv(rnd.Front) {
		t.Fatalf("RS-GDE3 hv %v below random hv %v", hv(res.Front), hv(rnd.Front))
	}
}

// Rough-set reduction accelerates convergence: at the same stagnation
// rule RS-GDE3 should reach at least the quality of plain GDE3 on the
// separable test problem.
func TestRoughSetAblation(t *testing.T) {
	hvOf := func(disable bool, seed int64) (float64, int) {
		eval := newFuncEvaluator(schaffer)
		name := "rs-gde3"
		if disable {
			name = "gde3"
		}
		res, err := search(name, schafferSpace(), eval, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var objs [][]float64
		for _, p := range res.Front {
			objs = append(objs, p.Objectives)
		}
		v, err := pareto.NormalizedHypervolume(objs, []float64{0, 0}, []float64{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		return v, res.Evaluations
	}
	var rsBetter int
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		rs, _ := hvOf(false, seed)
		plain, _ := hvOf(true, seed)
		if rs >= plain-0.01 {
			rsBetter++
		}
	}
	if rsBetter < trials-1 {
		t.Fatalf("rough set reduction helped in only %d/%d trials", rsBetter, trials)
	}
}

func TestNonDominatedSortRanks(t *testing.T) {
	pop := []individual{
		{objs: []float64{1, 1}},
		{objs: []float64{2, 2}},
		{objs: []float64{1, 3}},
		{objs: nil},
		{objs: []float64{3, 3}},
	}
	var a arena
	ranks := a.nonDominatedSort(pop)
	if len(ranks) != 4 {
		t.Fatalf("ranks = %v", ranks)
	}
	if len(ranks[0]) != 1 || ranks[0][0] != 0 {
		t.Fatalf("rank 0 = %v", ranks[0])
	}
	// (2,2) and (1,3) are mutually non-dominated once (1,1) is gone.
	if len(ranks[1]) != 2 {
		t.Fatalf("rank 1 = %v", ranks[1])
	}
	// nil objectives land last.
	last := ranks[len(ranks)-1]
	if len(last) != 1 || last[0] != 3 {
		t.Fatalf("failed rank = %v", last)
	}
}

func TestCrowdingDistanceExtremesInfinite(t *testing.T) {
	pop := []individual{
		{objs: []float64{0, 4}},
		{objs: []float64{1, 2}},
		{objs: []float64{4, 0}},
	}
	var a arena
	d := a.crowdingDistance(pop, []int{0, 1, 2})
	if !math.IsInf(d[0], 1) || !math.IsInf(d[2], 1) {
		t.Fatalf("extremes not infinite: %v", d)
	}
	if math.IsInf(d[1], 1) || d[1] <= 0 {
		t.Fatalf("middle distance = %v", d[1])
	}
}

func TestTruncateKeepsBestRank(t *testing.T) {
	pop := []individual{
		{cfg: skeleton.Config{0}, objs: []float64{1, 1}},
		{cfg: skeleton.Config{1}, objs: []float64{5, 5}},
		{cfg: skeleton.Config{2}, objs: []float64{0, 3}},
		{cfg: skeleton.Config{3}, objs: []float64{3, 0}},
	}
	var a arena
	out := a.truncate(pop, 2, nil)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	for _, ind := range out {
		if ind.objs[0] == 5 {
			t.Fatal("dominated individual survived truncation")
		}
	}
}

func TestPickDistinct(t *testing.T) {
	rng := fixedRand{vals: []int{1, 1, 2, 3, 0}}
	idx := make([]int, 3)
	pickDistinct(&rng, 5, 0, idx)
	seen := map[int]bool{0: true}
	for _, i := range idx {
		if seen[i] {
			t.Fatalf("duplicate or self index in %v", idx)
		}
		seen[i] = true
	}
	// Tiny population: repeats allowed, but self (index 0) is still
	// excluded as long as another member exists.
	rng2 := fixedRand{vals: []int{0, 1, 0, 1, 0, 1}}
	got := make([]int, 3)
	pickDistinct(&rng2, 2, 0, got)
	for _, i := range got {
		if i == 0 {
			t.Fatalf("self picked in tiny population: %v", got)
		}
	}
	// A population of one has no choice but self.
	rng3 := fixedRand{vals: []int{0}}
	got = []int{-1, -1, -1}
	if pickDistinct(&rng3, 1, 0, got); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("singleton population picks = %v", got)
	}
}

type fixedRand struct {
	vals []int
	pos  int
}

func (f *fixedRand) Intn(n int) int {
	v := f.vals[f.pos%len(f.vals)] % n
	f.pos++
	return v
}

func (f *fixedRand) Float64() float64 { return 0.25 }

func TestMutateStaysInBox(t *testing.T) {
	pop := []individual{
		{cfg: skeleton.Config{10, 10}},
		{cfg: skeleton.Config{500, 5}},
		{cfg: skeleton.Config{900, 9}},
		{cfg: skeleton.Config{100, 2}},
	}
	box := skeleton.Box{Lo: []int64{0, 1}, Hi: []int64{1000, 10}}
	rng := fixedRand{vals: []int{1, 2, 3, 0, 1}}
	var a arena
	r := a.mutate(nil, pop[0].cfg, pop, 0, box, Options{CR: 0.5, F: 0.5}.withDefaults(), &rng)
	if !inBox(box, r) {
		t.Fatalf("mutant %v escaped box", r)
	}
}

// inBox reports whether c lies within b, bounds included.
func inBox(b skeleton.Box, c skeleton.Config) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i, v := range c {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

func TestInvalidSpaceRejected(t *testing.T) {
	bad := skeleton.Space{}
	if _, err := search("rs-gde3", bad, newFuncEvaluator(schaffer), Options{}); err == nil {
		t.Error("RSGDE3 accepted invalid space")
	}
	if _, err := randomSearch(bad, newFuncEvaluator(schaffer), 10, 0); err == nil {
		t.Error("Random accepted invalid space")
	}
	if _, err := bruteForce(bad, newFuncEvaluator(schaffer), Grid{}); err == nil {
		t.Error("BruteForce accepted invalid space")
	}
}
