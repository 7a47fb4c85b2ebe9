package optimizer

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"autotune/internal/objective"
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
		Strategies:   []string{"gde3", "grid", "motpe", "nsga2", "random", "rs-gde3"},
		Interval:     2,
		Budget:       150,
		MinSurvivors: 2,
	}
}

// raceRun races ropt's contenders over cfg on the Schaffer problem.
func raceRun(eval objective.Evaluator, cfg StrategyConfig, ropt RaceOptions, ctrl Control) (*Result, error) {
	return Run(schafferSpace(), eval, Spec{Config: cfg, Race: &ropt}, ctrl)
}

// TestRaceDeterministicAcrossGOMAXPROCS is the racing determinism
// gate: a fixed seed must yield a byte-identical merged front and
// standings regardless of runtime parallelism. CI runs this under
// -race with GOMAXPROCS 1 and 4.
func TestRaceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rr, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{})
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
	rr, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{})
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
	rr, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{Ctx: ctx})
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
	_, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), raceTestOptions(), Control{Resume: &Snapshot{}})
	if err == nil || !strings.Contains(err.Error(), "cannot resume") {
		t.Fatalf("resume accepted: %v", err)
	}
}

func TestRaceOptionValidation(t *testing.T) {
	cases := []RaceOptions{
		{Strategies: []string{"rs-gde3"}},                       // one contender
		{Strategies: []string{"rs-gde3", "rs-gde3"}},            // duplicate
		{Strategies: []string{"rs-gde3", "alien"}},              // unregistered
		{Strategies: []string{"rs-gde3", "brute-force"}},        // exhaustive
		{Strategies: []string{"rs-gde3", "gde3"}, Interval: -1}, // bad interval
		{Strategies: []string{"rs-gde3", "gde3"}, Budget: -1},   // bad budget
		{Strategies: []string{"rs-gde3", "gde3"}, MinSurvivors: -1},
	}
	for i, ropt := range cases {
		_, resolveErr := ropt.Resolve()
		if _, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{}); err == nil || resolveErr == nil {
			t.Errorf("case %d: invalid options accepted (Run: %v, Resolve: %v): %+v", i, err, resolveErr, ropt)
		}
	}
	// An exhaustive strategy is refused by name, pointing at the ones
	// that race; the default contenders are exactly those.
	_, err := RaceOptions{Strategies: []string{"gde3", "brute-force"}}.Resolve()
	def, _ := RaceOptions{}.Resolve()
	if err == nil || !strings.Contains(err.Error(), `"brute-force"`) || !strings.Contains(err.Error(), strings.Join(def.Strategies, ", ")) {
		t.Errorf("brute-force contender: %v", err)
	}
	if !reflect.DeepEqual(def.Strategies, raceTestOptions().Strategies) {
		t.Errorf("default contenders %v", def.Strategies)
	}
	// A race takes its contenders from Race, runs no islands.
	ropt := raceTestOptions()
	for name, spec := range map[string]Spec{
		"strategy": {Strategy: "rs-gde3", Config: raceTestConfig(), Race: &ropt},
		"islands":  {Config: raceTestConfig(), Race: &ropt, Islands: &IslandOptions{}},
	} {
		if _, err := Run(schafferSpace(), newFuncEvaluator(schaffer), spec, Control{}); err == nil {
			t.Errorf("race with %s accepted", name)
		}
	}
}

func TestRaceStandingsAndElimination(t *testing.T) {
	ropt := raceTestOptions()
	ropt.Interval = 1
	ropt.MinSurvivors = 1
	rr, err := raceRun(newFuncEvaluator(schaffer), raceTestConfig(), ropt, Control{})
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
	if _, err := raceRun(eval, cfg, raceTestOptions(), Control{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := eval.seen[seed.Key()]; !ok {
		t.Fatal("warm-start seed configuration never evaluated by the race")
	}
}
