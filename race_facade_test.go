package autotune

import (
	"slices"
	"strings"
	"testing"

	"autotune/internal/driver"
)

// TestTuneRaceFacade drives the racing meta-optimizer end to end
// through the public Tune entry point.
func TestTuneRaceFacade(t *testing.T) {
	small := OptimizerOptions{PopSize: 8, MaxIterations: 6, Seed: 3}
	run := func() *TuneResult {
		res, err := Tune("mm",
			WithRace(RaceOptions{Interval: 2, Budget: 150}),
			WithMachineSpec(Westmere()),
			WithOptimizerOptions(small),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if len(a.Front) == 0 || a.Unit == nil {
		t.Fatal("race tuning produced no result")
	}
	if a.Evaluations > 150 {
		t.Fatalf("race consumed %d evaluations, budget 150", a.Evaluations)
	}
	b := run()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("race front size diverged between identical runs: %d vs %d", len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		for j := range a.Front[i].Objectives {
			if a.Front[i].Objectives[j] != b.Front[i].Objectives[j] {
				t.Fatalf("race front point %d diverged: %v vs %v", i, a.Front[i].Objectives, b.Front[i].Objectives)
			}
		}
	}
}

func TestWithRaceRejectsInvalidOptions(t *testing.T) {
	if _, err := Tune("mm", WithRace(RaceOptions{Interval: -1})); err == nil {
		t.Fatal("negative race interval accepted")
	}
	if _, err := Tune("mm", WithRace(RaceOptions{Budget: -1})); err == nil {
		t.Fatal("negative race budget accepted")
	}
	if _, err := Tune("mm",
		WithRace(RaceOptions{Strategies: []string{"rs-gde3", "alien"}}),
		WithMachineSpec(Westmere()),
	); err == nil {
		t.Fatal("unregistered contender accepted")
	}
}

// TestStrategiesAreTheContenders: every name Strategies lists races,
// and brute force, registered beside them, is refused by name.
func TestStrategiesAreTheContenders(t *testing.T) {
	names := Strategies()
	if slices.Contains(names, string(BruteForce)) || !slices.IsSorted(names) {
		t.Fatalf("Strategies() = %v", names)
	}
	opt, err := driverOptions([]Option{WithRace(RaceOptions{Strategies: names})})
	if err != nil {
		t.Fatal(err)
	}
	if err := driver.CheckOptions(opt, false); err != nil {
		t.Fatalf("the contenders Strategies lists are refused: %v", err)
	}
	_, err = Tune("mm", WithRace(RaceOptions{Strategies: []string{"gde3", string(BruteForce)}}))
	if err == nil || !strings.Contains(err.Error(), `"brute-force"`) {
		t.Fatalf("brute force as a contender: %v", err)
	}
}
