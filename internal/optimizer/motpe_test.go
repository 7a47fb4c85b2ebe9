package optimizer

import (
	"encoding/json"
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

func motpeTestOptions() Options {
	return Options{PopSize: 12, MaxIterations: 12, Stagnation: 13, Seed: 1}
}

func TestMOTPEFindsSchafferFront(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	res, err := search("motpe", schafferSpace(), eval, motpeTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
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

func TestMOTPEDeterministic(t *testing.T) {
	a, err := search("motpe", schafferSpace(), newFuncEvaluator(schaffer), motpeTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := search("motpe", schafferSpace(), newFuncEvaluator(schaffer), motpeTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a.Front)
	bj, _ := json.Marshal(b.Front)
	if string(aj) != string(bj) || a.Evaluations != b.Evaluations {
		t.Fatalf("same seed differs: %d evals vs %d evals", a.Evaluations, b.Evaluations)
	}
}

func TestMOTPEHandlesFailedEvaluations(t *testing.T) {
	// Half the space fails: with fewer than four successful
	// observations MOTPE must fall back to uniform sampling instead of
	// fitting a density model, and failed points must never reach the
	// archive.
	eval := newFuncEvaluator(func(c skeleton.Config) []float64 {
		if c[0] < 0 {
			return nil
		}
		return schaffer(c)
	})
	res, err := search("motpe", schafferSpace(), eval, motpeTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		if p.Objectives == nil {
			t.Fatal("failed evaluation reached the front")
		}
		if p.Payload.(skeleton.Config)[0] < 0 {
			t.Fatal("front contains a config from the failing half-space")
		}
	}
}

func TestMOTPESplitNeedsFourSuccesses(t *testing.T) {
	m := &motpeIsland{population: population{space: schafferSpace(), opt: motpeTestOptions()}}
	for i := 0; i < 3; i++ {
		m.pop = append(m.pop, individual{cfg: skeleton.Config{int64(i), 0}, objs: []float64{float64(i), float64(-i)}})
	}
	m.pop = append(m.pop, individual{cfg: skeleton.Config{9, 0}, objs: nil}) // failed
	if good, bad := m.splitObservations(); good != nil || bad != nil {
		t.Fatal("split fitted a model on fewer than four successful observations")
	}
	m.pop = append(m.pop, individual{cfg: skeleton.Config{4, 0}, objs: []float64{4, -4}})
	good, bad := m.splitObservations()
	if len(good) < 2 {
		t.Fatalf("good quartile has %d members, want at least 2", len(good))
	}
	if len(good)+len(bad) != 4 {
		t.Fatalf("split covers %d successful observations, want 4", len(good)+len(bad))
	}
}
