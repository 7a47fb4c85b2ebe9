package optimizer

import (
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

func TestNSGA2FindsSchafferFront(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	res, err := search("nsga2", schafferSpace(), eval, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, p := range res.Front {
		x := float64(p.Payload.(skeleton.Config)[0]) / 100
		if x < -0.3 || x > 2.3 {
			t.Errorf("front point x = %v outside Pareto set", x)
		}
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && pareto.Dominates(res.Front[i].Objectives, res.Front[j].Objectives) {
				t.Fatal("front contains dominated point")
			}
		}
	}
	if res.Evaluations == 0 || res.Iterations == 0 {
		t.Fatalf("metrics: %d/%d", res.Evaluations, res.Iterations)
	}
}

func TestNSGA2Deterministic(t *testing.T) {
	a, _ := search("nsga2", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 4})
	b, _ := search("nsga2", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 4})
	if len(a.Front) != len(b.Front) || a.Evaluations != b.Evaluations {
		t.Fatal("same seed differs")
	}
}

func TestNSGA2InvalidSpace(t *testing.T) {
	if _, err := search("nsga2", skeleton.Space{}, newFuncEvaluator(schaffer), Options{}); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestNSGA2HandlesFailures(t *testing.T) {
	eval := newFuncEvaluator(func(c skeleton.Config) []float64 {
		if c[0]%2 == 0 {
			return nil
		}
		return schaffer(c)
	})
	res, err := search("nsga2", schafferSpace(), eval, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		if p.Payload.(skeleton.Config)[0]%2 == 0 {
			t.Fatal("front contains failed configuration")
		}
	}
}

func TestNSGA2StagnationStops(t *testing.T) {
	eval := newFuncEvaluator(func(c skeleton.Config) []float64 { return []float64{1, 1} })
	res, err := search("nsga2", schafferSpace(), eval, Options{Seed: 3, Stagnation: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", res.Iterations)
	}
}

// RS-GDE3 should converge with fewer evaluations than NSGA-II on the
// tiling-style problem (the reason the paper picked DE).
func TestNSGA2VersusRSGDE3(t *testing.T) {
	rsHV, nsHV := 0.0, 0.0
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
	for seed := int64(0); seed < 3; seed++ {
		rs, err := search("rs-gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ns, err := search("nsga2", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rsHV += hv(rs.Front)
		nsHV += hv(ns.Front)
	}
	// Both must reach a decent front; exact ordering is problem
	// dependent, so only sanity is asserted.
	if rsHV/3 < 0.5 || nsHV/3 < 0.5 {
		t.Fatalf("poor convergence: rs=%.3f nsga2=%.3f", rsHV/3, nsHV/3)
	}
}
