package autotune

import (
	"testing"
)

// TestTuneIslandsFacade drives the island model end to end through the
// public Tune entry point, for each evolutionary method.
func TestTuneIslandsFacade(t *testing.T) {
	small := OptimizerOptions{PopSize: 8, MaxIterations: 4, Seed: 3}
	for _, method := range []Method{RSGDE3, GDE3, NSGA2} {
		res, err := Tune("mm",
			WithMethod(method),
			WithIslands(2, 2),
			WithMachineSpec(Westmere()),
			WithOptimizerOptions(small),
		)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(res.Front) == 0 || res.Unit == nil {
			t.Fatalf("%s: island tuning produced no result", method)
		}
	}
}

func TestWithIslandsRejectsNegative(t *testing.T) {
	if _, err := Tune("mm", WithIslands(-1, 0)); err == nil {
		t.Fatal("negative island count accepted")
	}
	if _, err := Tune("mm", WithIslands(2, -1)); err == nil {
		t.Fatal("negative migration interval accepted")
	}
}

// TestOptimizeIslandsFacade runs the parallel optimizer over a custom
// search problem and checks the documented determinism guarantee.
func TestOptimizeIslandsFacade(t *testing.T) {
	space := Space{Params: []Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 0, Max: 100},
	}}
	opt := OptimizerOptions{PopSize: 10, Seed: 4, MaxIterations: 8}
	iopt := IslandOptions{Islands: 3, MigrationInterval: 2}
	run := func() *OptimizerResult {
		res, err := OptimizeIslands(space, &customEval{}, opt, iopt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Front) == 0 {
		t.Fatal("custom island optimization found nothing")
	}
	if len(a.Front) != len(b.Front) {
		t.Fatalf("front size diverged between identical runs: %d vs %d", len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		pa, pb := a.Front[i], b.Front[i]
		for j := range pa.Objectives {
			if pa.Objectives[j] != pb.Objectives[j] {
				t.Fatalf("front point %d diverged: %v vs %v", i, pa.Objectives, pb.Objectives)
			}
		}
	}
}

func TestBruteForceGridFacade(t *testing.T) {
	res, err := Tune("mm",
		WithMethod(BruteForce),
		WithGridPoints([]int{4, 4, 4, 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("brute-force grid found nothing")
	}
}

func TestRandomSearchWithNoiseFacade(t *testing.T) {
	res, err := Tune("mm",
		WithMethod(RandomSearch),
		WithRandomBudget(40),
		WithNoise(0.05),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || res.Evaluations == 0 {
		t.Fatal("random search with noise found nothing")
	}
}
