package driver

import (
	"testing"

	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/tunedb"
)

// TestProblemKeyMatchesJournaledKey: ProblemKey must derive exactly the
// key TuneKernel journals under, or service-side dedup would miss the
// warm-start data the search itself stores.
func TestProblemKeyMatchesJournaledKey(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opt := Options{
		Machine:   machine.Westmere(),
		DB:        db,
		Optimizer: optimizer.Options{PopSize: 8, Seed: 3, MaxIterations: 2},
	}
	key, err := ProblemKey("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TuneKernel("mm", opt); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Front(key); !ok {
		t.Fatalf("no stored front under ProblemKey %s; stored keys: %v", key, db.Keys())
	}
	if evalCount(t, db, key) == 0 {
		t.Fatalf("no stored evaluations under ProblemKey %s", key)
	}
}

// TestProblemKeyDiscriminates: the key must separate problems that a
// shared search may not conflate, and only those.
func TestProblemKeyDiscriminates(t *testing.T) {
	base := Options{Machine: machine.Westmere()}
	ref, err := ProblemKey("mm", base)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ProblemKey("mm", Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if same != ref {
		t.Fatalf("seed changed the problem key: %s vs %s", same, ref)
	}
	variants := map[string]Options{
		"machine": {Machine: machine.Barcelona()},
		"size":    {Machine: machine.Westmere(), N: 128},
		"energy":  {Machine: machine.Westmere(), Objectives: []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}},
		"unroll":  {Machine: machine.Westmere(), UnrollDim: true},
	}
	for name, o := range variants {
		k, err := ProblemKey("mm", o)
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Errorf("%s variant did not change the problem key", name)
		}
	}
	other, err := ProblemKey("2mm", base)
	if err != nil {
		t.Fatal(err)
	}
	if other == ref {
		t.Error("different kernel did not change the problem key")
	}
	if _, err := ProblemKey("mm", Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := ProblemKey("no-such-kernel", base); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestWithProgressReportsEveryEvaluation: the OnProgress hook fires
// once per evaluated batch — the initial population and each
// generation, not each evaluation — with a strictly growing cumulative
// count that ends at the result's evaluation total.
func TestWithProgressReportsEveryEvaluation(t *testing.T) {
	var counts []int
	opt := Options{
		Machine:    machine.Westmere(),
		Optimizer:  optimizer.Options{PopSize: 8, Seed: 7, MaxIterations: 3},
		OnProgress: func(done int) { counts = append(counts, done) }, // one island: calls are sequential
	}
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 || len(counts) > out.Result.Iterations+1 {
		t.Fatalf("progress fired %d times for %d generations after the initial population: %v",
			len(counts), out.Result.Iterations, counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("progress counts not strictly growing: %v", counts)
		}
	}
	if last := counts[len(counts)-1]; last != out.Result.Evaluations {
		t.Fatalf("last progress %d != evaluations %d", last, out.Result.Evaluations)
	}
}
