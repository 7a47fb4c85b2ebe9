package optimizer_test

import (
	"testing"

	"autotune/internal/optimizer"
)

// TestBenchEntryPointsAreRun: each entry point kept for bench/ returns
// what Run returns for the Spec it stands for, and the two walks still
// demand a positive budget where a Spec's zero means the default.
func TestBenchEntryPointsAreRun(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 10, MaxIterations: 5, Seed: 2}
	nopt := optimizer.NSGA2Options{Seed: 2}
	iopt := optimizer.IslandOptions{Islands: 2, MigrationInterval: 2}
	ctrl := optimizer.Control{}
	for name, c := range map[string]struct {
		spec optimizer.Spec
		run  func() (*optimizer.Result, error)
	}{
		"RSGDE3Controlled": {spec("rs-gde3", opt, nil), func() (*optimizer.Result, error) {
			return optimizer.RSGDE3Controlled(space, newDetEval(), opt, ctrl)
		}},
		"GDE3Controlled": {spec("gde3", opt, nil), func() (*optimizer.Result, error) {
			return optimizer.GDE3Controlled(space, newDetEval(), opt, ctrl)
		}},
		"NSGA2Controlled": {optimizer.Spec{Strategy: "nsga2", Config: optimizer.StrategyConfig{NSGA2: nopt}}, func() (*optimizer.Result, error) {
			return optimizer.NSGA2Controlled(space, newDetEval(), nopt, ctrl)
		}},
		"MOTPEControlled": {spec("motpe", opt, nil), func() (*optimizer.Result, error) {
			return optimizer.MOTPEControlled(space, newDetEval(), opt, ctrl)
		}},
		"RSGDE3IslandsControlled": {spec("rs-gde3", opt, &iopt), func() (*optimizer.Result, error) {
			return optimizer.RSGDE3IslandsControlled(space, newDetEval(), opt, iopt, ctrl)
		}},
		"RandomControlled": {optimizer.Spec{Strategy: "random", Config: optimizer.StrategyConfig{Options: optimizer.Options{Seed: 2}, RandomBudget: 90}}, func() (*optimizer.Result, error) {
			return optimizer.RandomControlled(space, newDetEval(), 90, 2, ctrl)
		}},
		"GridSearchControlled": {optimizer.Spec{Strategy: "grid", Config: optimizer.StrategyConfig{RandomBudget: 90}}, func() (*optimizer.Result, error) {
			return optimizer.GridSearchControlled(space, newDetEval(), 90, ctrl)
		}},
		"RaceControlled": {optimizer.Spec{Config: optimizer.StrategyConfig{Options: opt}, Race: &optimizer.RaceOptions{Budget: 120}}, func() (*optimizer.Result, error) {
			rr, err := optimizer.RaceControlled(space, newDetEval(), optimizer.StrategyConfig{Options: opt}, optimizer.RaceOptions{Budget: 120}, ctrl)
			if err != nil {
				return nil, err
			}
			return rr.Result, nil
		}},
	} {
		want, err := optimizer.Run(space, newDetEval(), c.spec, ctrl)
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if frontFingerprint(got.Front) != frontFingerprint(want.Front) || got.Evaluations != want.Evaluations || got.Iterations != want.Iterations {
			t.Errorf("%s: front/E/iterations differ from Run with its Spec", name)
		}
	}
	if _, err := optimizer.RandomControlled(space, newDetEval(), 0, 1, ctrl); err == nil {
		t.Error("RandomControlled accepted a zero budget")
	}
	if _, err := optimizer.GridSearchControlled(space, newDetEval(), 0, ctrl); err == nil {
		t.Error("GridSearchControlled accepted a zero budget")
	}
}
