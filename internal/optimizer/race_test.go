package optimizer

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"autotune/internal/skeleton"
)

func raceTestConfig() StrategyConfig {
	return StrategyConfig{
		Options:      Options{PopSize: 8, MaxIterations: 6, Stagnation: 7, Seed: 1},
		RandomBudget: 64,
	}
}

func raceTestOptions() RaceOptions {
	return RaceOptions{
		Strategies:   StrategyNames(),
		Interval:     2,
		Budget:       150,
		MinSurvivors: 2,
	}
}

// TestRaceDeterministicAcrossGOMAXPROCS is the racing determinism
// gate: a fixed seed must yield a byte-identical merged front and
// standings regardless of runtime parallelism. CI runs this under
// -race with GOMAXPROCS 1 and 4.
func TestRaceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rr, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(struct {
			Front     interface{}
			Standings []Standing
		}{rr.Front, rr.Standings})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("GOMAXPROCS=%d changes the race outcome:\n%s\nvs\n%s", procs, got, want)
		}
	}
}

func TestRaceRespectsBudgetExactly(t *testing.T) {
	ropt := raceTestOptions()
	ropt.Budget = 60
	rr, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Evaluations > ropt.Budget {
		t.Fatalf("race consumed %d evaluations, budget %d", rr.Evaluations, ropt.Budget)
	}
	if rr.Evaluations == 0 || len(rr.Front) == 0 {
		t.Fatalf("race did no work: E=%d |front|=%d", rr.Evaluations, len(rr.Front))
	}
}

func TestRaceCancellationReturnsPartialFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Partial {
		t.Fatal("cancelled race not flagged Partial")
	}
	if len(rr.Front) == 0 {
		t.Fatal("cancelled race should still return the merged best-so-far front")
	}
}

func TestRaceResumeRejected(t *testing.T) {
	_, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{Resume: &Snapshot{}})
	if err == nil || !strings.Contains(err.Error(), "cannot resume") {
		t.Fatalf("resume accepted: %v", err)
	}
}

func TestRaceOptionValidation(t *testing.T) {
	cases := []RaceOptions{
		{Strategies: []string{"rs-gde3"}},                       // one contender
		{Strategies: []string{"rs-gde3", "rs-gde3"}},            // duplicate
		{Strategies: []string{"rs-gde3", "alien"}},              // unregistered
		{Strategies: []string{"rs-gde3", "gde3"}, Interval: -1}, // bad interval
		{Strategies: []string{"rs-gde3", "gde3"}, Budget: -1},   // bad budget
		{Strategies: []string{"rs-gde3", "gde3"}, MinSurvivors: -1},
	}
	for i, ropt := range cases {
		if _, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{}); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, ropt)
		}
	}
}

func TestRaceStandingsAndElimination(t *testing.T) {
	ropt := raceTestOptions()
	ropt.Interval = 1
	ropt.MinSurvivors = 1
	rr, err := RaceControlled(schafferSpace(), newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Standings) != len(ropt.Strategies) {
		t.Fatalf("standings cover %d contenders, want %d", len(rr.Standings), len(ropt.Strategies))
	}
	eliminated := 0
	for i, s := range rr.Standings {
		if i > 0 && s.Score > rr.Standings[i-1].Score {
			t.Fatal("standings not sorted best-first")
		}
		if s.Eliminated {
			eliminated++
			if s.EliminatedAt < 1 {
				t.Fatalf("%s eliminated at generation %d", s.Strategy, s.EliminatedAt)
			}
		}
	}
	if eliminated == 0 {
		t.Fatal("interval-1 race eliminated nobody")
	}
	if len(rr.Reference) == 0 {
		t.Fatal("no shared reference recorded")
	}
	// The merged front folds every contender's archive, so it must be
	// mutually non-dominated and non-empty.
	if len(rr.Front) == 0 {
		t.Fatal("empty merged front")
	}
}

func TestRaceWarmStartSeedsEveryContender(t *testing.T) {
	seed := skeleton.Config{150, 5}
	cfg := raceTestConfig()
	cfg.Options.InitialPopulation = []skeleton.Config{seed}
	eval := newFuncEvaluator(schaffer)
	if _, err := RaceControlled(schafferSpace(), eval, cfg, raceTestOptions(), Control{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := eval.seen[seed.Key()]; !ok {
		t.Fatal("warm-start seed configuration never evaluated by the race")
	}
}
