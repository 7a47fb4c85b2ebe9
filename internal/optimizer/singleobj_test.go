package optimizer

import (
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

func TestSingleObjectiveDEFindsWeightedOptimum(t *testing.T) {
	// With all weight on f1 = x², the optimum is x = 0.
	eval := newFuncEvaluator(schaffer)
	res, err := SingleObjectiveDE(schafferSpace(), eval, []float64{1, 0}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 1 {
		t.Fatalf("front = %d points, want exactly 1", len(res.Front))
	}
	x := res.Front[0].Payload.(skeleton.Config)[0]
	if x < -20 || x > 20 { // |x/100| close to 0
		t.Fatalf("x = %d, want near 0", x)
	}
	// With all weight on f2 = (x-2)², the optimum is x = 200.
	res2, err := SingleObjectiveDE(schafferSpace(), newFuncEvaluator(schaffer), []float64{0, 1}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x2 := res2.Front[0].Payload.(skeleton.Config)[0]
	if x2 < 180 || x2 > 220 {
		t.Fatalf("x = %d, want near 200", x2)
	}
}

func TestSingleObjectiveDEValidation(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	if _, err := SingleObjectiveDE(skeleton.Space{}, eval, []float64{1}, Options{}); err == nil {
		t.Error("invalid space accepted")
	}
	if _, err := SingleObjectiveDE(schafferSpace(), eval, nil, Options{}); err == nil {
		t.Error("missing weights accepted")
	}
	if _, err := SingleObjectiveDE(schafferSpace(), eval, []float64{-1, 0}, Options{}); err == nil {
		t.Error("negative weight accepted")
	}
	// All evaluations failing yields an error.
	failing := newFuncEvaluator(func(skeleton.Config) []float64 { return nil })
	if _, err := SingleObjectiveDE(schafferSpace(), failing, []float64{1, 0}, Options{Seed: 2, MaxIterations: 3}); err == nil {
		t.Error("all-failing evaluator should error")
	}
}

// The paper's motivation, quantified: covering K trade-off points with
// a single-objective tuner costs ~K separate runs, while one RS-GDE3
// run covers them all. With equal total budget, the multi-objective
// front must weakly dominate the set of single-objective results.
func TestMultiObjectiveCoversWeightSweep(t *testing.T) {
	weights := [][]float64{{1, 0}, {0.75, 0.25}, {0.5, 0.5}, {0.25, 0.75}, {0, 1}}
	var soPoints [][]float64
	soEvals := 0
	for i, w := range weights {
		eval := newFuncEvaluator(schaffer)
		res, err := SingleObjectiveDE(schafferSpace(), eval, w, Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		soPoints = append(soPoints, res.Front[0].Objectives)
		soEvals += res.Evaluations
	}
	mo, err := search("rs-gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single-objective sweep: %d evals for %d points; RS-GDE3: %d evals for %d points",
		soEvals, len(soPoints), mo.Evaluations, len(mo.Front))
	// Every single-objective result is weakly dominated by (or ties
	// with) some point of the multi-objective front, within tolerance.
	for i, sp := range soPoints {
		covered := false
		for _, p := range mo.Front {
			if pareto.WeaklyDominates(p.Objectives, []float64{sp[0] + 0.05, sp[1] + 0.05}) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("weight set %d result %v not covered by the multi-objective front", i, sp)
		}
	}
	// And the multi-objective run used fewer evaluations than the
	// whole sweep.
	if mo.Evaluations >= soEvals {
		t.Errorf("RS-GDE3 evals %d not below sweep total %d", mo.Evaluations, soEvals)
	}
}
