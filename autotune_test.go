package autotune

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestKernelsList(t *testing.T) {
	ks := Kernels()
	if len(ks) != 7 { // the paper's five plus the 2mm and atax extensions
		t.Fatalf("kernels = %v", ks)
	}
}

func TestMachines(t *testing.T) {
	if Westmere().Cores() != 40 || Barcelona().Cores() != 32 {
		t.Fatal("machine topology wrong")
	}
	m, err := MachineByName("Barcelona")
	if err != nil || m.Name != "Barcelona" {
		t.Fatal("MachineByName failed")
	}
	if _, err := MachineByName("?"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestTuneDefaults(t *testing.T) {
	res, err := Tune("mm", WithSeed(1),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 1, MaxIterations: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unit.Versions) == 0 || res.Evaluations == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestTuneOptionErrors(t *testing.T) {
	cases := []Option{
		WithMachine("nope"),
		WithProblemSize(0),
		WithNoise(-1),
		WithRandomBudget(0),
		WithMachineSpec(&Machine{}),
	}
	for i, opt := range cases {
		if _, err := Tune("mm", opt); err == nil {
			t.Errorf("option case %d: error not propagated", i)
		}
	}
	if _, err := Tune("unknown-kernel"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestNegativeOptimizerSizesRefused: a negative PopSize used to die in
// makeslice, and a negative MaxIterations or Stagnation silently ran
// zero generations, whatever the method. Every entry point refuses all
// three by name before any work.
func TestNegativeOptimizerSizesRefused(t *testing.T) {
	space := Space{Params: []Param{{Name: "x", Min: 0, Max: 100}, {Name: "y", Min: 0, Max: 100}}}
	for field, o := range map[string]OptimizerOptions{
		"PopSize":       {PopSize: -1},
		"MaxIterations": {MaxIterations: -1},
		"Stagnation":    {Stagnation: -1},
	} {
		entries := map[string]func() error{
			"TuneAll": func() error {
				_, err := TuneAll([]string{"mm", "jacobi-2d"}, WithOptimizerOptions(o))
				return err
			},
			"TuneSourceAll": func() error {
				_, err := TuneSourceAll(jointProgramSrc, WithOptimizerOptions(o))
				return err
			},
			"Optimize": func() error {
				_, err := Optimize(space, &customEval{}, o)
				return err
			},
			"OptimizeIslands": func() error {
				_, err := OptimizeIslands(space, &customEval{}, o, IslandOptions{Islands: 2})
				return err
			},
		}
		for _, m := range Methods() {
			entries["Tune/"+m] = func() error {
				_, err := Tune("mm", WithMethod(Method(m)), WithOptimizerOptions(o))
				return err
			}
		}
		for entry, run := range entries {
			if err := run(); err == nil {
				t.Errorf("%s accepted %s = -1", entry, field)
			} else if !strings.Contains(err.Error(), field+" -1") {
				t.Errorf("%s: refusal of %s = -1 does not name it: %v", entry, field, err)
			}
		}
	}
}

func TestTuneWithEnergyObjective(t *testing.T) {
	res, err := Tune("mm",
		WithMachine("Barcelona"),
		WithEnergyObjective(),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 3, MaxIterations: 8}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unit.ObjectiveNames) != 3 || res.Unit.ObjectiveNames[2] != "energy" {
		t.Fatalf("objective names = %v", res.Unit.ObjectiveNames)
	}
	for _, v := range res.Unit.Versions {
		if len(v.Meta.Objectives) != 3 {
			t.Fatal("3-objective metadata missing")
		}
	}
}

func TestEndToEndRuntimeFlow(t *testing.T) {
	res, err := Tune("mm", WithSeed(2), WithProblemSize(128),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 2, MaxIterations: 10}))
	if err != nil {
		t.Fatal(err)
	}
	// Replace real entries with counters for a fast test.
	var mu sync.Mutex
	runs := map[int]int{}
	for i := range res.Unit.Versions {
		i := i
		res.Unit.Versions[i].Entry = func() error {
			mu.Lock()
			runs[i]++
			mu.Unlock()
			return nil
		}
	}
	rt, err := NewRuntime(res.Unit, WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPolicy(WeightedSum{Weights: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	eff, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unit.Versions) > 1 && fast == eff {
		t.Error("policy change did not change selection on a multi-point front")
	}
	if rt.Stats().Invocations != 2 {
		t.Fatalf("stats = %+v", rt.Stats())
	}
}

func TestUnitSerializationViaFacade(t *testing.T) {
	res, err := Tune("jacobi-2d", WithSeed(4),
		WithOptimizerOptions(OptimizerOptions{PopSize: 8, Seed: 4, MaxIterations: 6}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Unit.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "objectives") {
		t.Fatal("encoded unit lacks metadata")
	}
	u, err := DecodeUnit(data)
	if err != nil {
		t.Fatal(err)
	}
	if u.Region != res.Unit.Region {
		t.Fatal("round trip lost region")
	}
}

func TestOptimizeCustomProblem(t *testing.T) {
	space := Space{Params: []Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 0, Max: 100},
	}}
	eval := &customEval{}
	res, err := Optimize(space, eval, OptimizerOptions{PopSize: 12, Seed: 9, MaxIterations: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("custom optimization found nothing")
	}
	// Known front: x+y == 100 line is the trade-off between
	// f1 = x distance and f2 = y distance. Check non-domination only.
	for _, p := range res.Front {
		if len(p.Objectives) != 2 {
			t.Fatal("bad objective arity")
		}
	}
}

// customEval minimizes f1 = (100-x)², f2 = (100-y)² subject to a
// shared budget penalty when x+y > 100.
type customEval struct {
	mu   sync.Mutex
	seen map[string][]float64
}

func (e *customEval) Evaluate(cfgs []Config) [][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = map[string][]float64{}
	}
	out := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		key := c.Key()
		if v, ok := e.seen[key]; ok {
			out[i] = v
			continue
		}
		x, y := float64(c[0]), float64(c[1])
		penalty := 0.0
		if x+y > 100 {
			penalty = (x + y - 100) * 10
		}
		v := []float64{(100-x)*(100-x) + penalty, (100-y)*(100-y) + penalty}
		e.seen[key] = v
		out[i] = v
	}
	return out
}

func (e *customEval) ObjectiveNames() []string { return []string{"f1", "f2"} }

func (e *customEval) Evaluations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.seen)
}

// nanEval minimizes f1 = x² + y², f2 = (63-x)² + (63-y)² over a 64×64
// space, except that at (63, 63), the configuration with the best f2,
// it reports a NaN f1, as an evaluator computing 0/0 there would.
type nanEval struct {
	seen map[string]bool
}

func (e *nanEval) Evaluate(cfgs []Config) [][]float64 {
	out := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		e.seen[c.Key()] = true
		x, y := float64(c[0]), float64(c[1])
		out[i] = []float64{x*x + y*y, (63-x)*(63-x) + (63-y)*(63-y)}
		if c[0] == 63 && c[1] == 63 {
			out[i][0] = math.NaN()
		}
	}
	return out
}

func (e *nanEval) ObjectiveNames() []string { return []string{"f1", "f2"} }

func (e *nanEval) Evaluations() int { return len(e.seen) }

// TestOptimizeNaNObjectiveStaysOffTheFront: a NaN compares false both
// ways, so a NaN vector in the archive would weakly dominate every later
// point no worse in its other components — here every point, since the
// NaN lands on the best f2 — and the search would end on a 1-point front
// holding it. A vector with a NaN component never enters the front.
func TestOptimizeNaNObjectiveStaysOffTheFront(t *testing.T) {
	space := Space{Params: []Param{
		{Name: "x", Min: 0, Max: 63},
		{Name: "y", Min: 0, Max: 63},
	}}
	res, err := Optimize(space, &nanEval{seen: map[string]bool{}}, OptimizerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		for _, o := range p.Objectives {
			if math.IsNaN(o) {
				t.Fatalf("front holds the NaN point %v %v", p.Payload, p.Objectives)
			}
		}
	}
	if len(res.Front) <= 1 {
		t.Fatalf("front has %d points after %d evaluations, want more than one", len(res.Front), res.Evaluations)
	}
}

func TestTuneWithUnrollDimension(t *testing.T) {
	res, err := Tune("mm",
		WithUnrollDimension(),
		WithSeed(6),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 6, MaxIterations: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	sawUnroll := false
	for _, v := range res.Unit.Versions {
		if v.Meta.Unroll < 1 || v.Meta.Unroll > 8 {
			t.Fatalf("unroll = %d out of range", v.Meta.Unroll)
		}
		if v.Meta.Unroll > 1 {
			sawUnroll = true
			if !strings.Contains(v.Code, "#pragma unroll(") {
				t.Fatal("unrolled version lacks pragma in listing")
			}
		}
	}
	if !sawUnroll {
		t.Log("note: no version chose unroll > 1 (landscape-dependent)")
	}
	// Measured tuning rejects the unroll dimension.
	if _, err := Tune("mm", WithUnrollDimension(), WithMeasuredExecution(1)); err == nil {
		t.Fatal("measured + unroll accepted")
	}
}

func TestTuneAllFacade(t *testing.T) {
	results, err := TuneAll([]string{"mm", "jacobi-2d"},
		WithSeed(8),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 8, MaxIterations: 10}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Evaluations != results[1].Evaluations {
		t.Fatal("joint results should share the execution count")
	}
	for _, r := range results {
		if len(r.Unit.Versions) == 0 {
			t.Fatal("empty unit")
		}
	}
}

func TestEmitCFacade(t *testing.T) {
	res, err := Tune("mm", WithProblemSize(64), WithSeed(2),
		WithOptimizerOptions(OptimizerOptions{PopSize: 8, Seed: 2, MaxIterations: 6}))
	if err != nil {
		t.Fatal(err)
	}
	code, err := res.EmitC("mm")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"void mm_v0(", "mm_dispatch", "static const double mm_objectives"} {
		if !strings.Contains(code, want) {
			t.Errorf("EmitC missing %q", want)
		}
	}
	// Decoded units carry no region info.
	blob, _ := res.Unit.Encode()
	u, _ := DecodeUnit(blob)
	bare := &TuneResult{Unit: u}
	if _, err := bare.EmitC("x"); err == nil {
		t.Error("EmitC without region info accepted")
	}
}

func TestAdaptivePolicyViaFacade(t *testing.T) {
	res, err := Tune("mm", WithProblemSize(64), WithSeed(4),
		WithOptimizerOptions(OptimizerOptions{PopSize: 8, Seed: 4, MaxIterations: 8}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Unit.Versions {
		res.Unit.Versions[i].Entry = func() error { return nil }
	}
	a := &AdaptivePolicy{Epsilon: 0, Seed: 1}
	rt, err := NewRuntime(res.Unit, a)
	if err != nil {
		t.Fatal(err)
	}
	idx, elapsed, err := InvokeTimed(rt, a)
	if err != nil || elapsed < 0 {
		t.Fatalf("InvokeTimed: %d, %v, %v", idx, elapsed, err)
	}
	if n := rt.Stats().PerVersion[idx]; n != 1 {
		t.Fatalf("version %d ran %d times, want 1", idx, n)
	}
}

func TestTuneSource(t *testing.T) {
	src := `
program sweep
array A[512][512] elem 8
array B[512][512] elem 8
for i = 0..512 {
  for j = 0..512 {
    B[i][j] = f(A[i][j], A[j][i]) flops 2
  }
}
`
	res, err := TuneSource(src, WithSeed(5),
		WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 5, MaxIterations: 12}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unit.Versions) == 0 {
		t.Fatal("no versions")
	}
	// The C emitter works for parsed programs too.
	code, err := res.EmitC("sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "void sweep_v0(") {
		t.Fatal("EmitC broken for parsed programs")
	}
	// Parse errors propagate, from the joint entry point too, which
	// refuses by name what TuneAll refuses.
	if _, err := TuneSource("not a program"); err == nil {
		t.Fatal("garbage source accepted")
	}
	if _, err := TuneSourceAll("not a program"); err == nil {
		t.Fatal("TuneSourceAll accepted a garbage source")
	}
	if _, err := TuneSourceAll(src, WithIslands(2, 0)); err == nil || !strings.Contains(err.Error(), "Islands") {
		t.Fatalf("TuneSourceAll with islands: %v", err)
	}
}
