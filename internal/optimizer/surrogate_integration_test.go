package optimizer

import (
	"encoding/json"
	"runtime"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/surrogate"
)

// screenedSchaffer builds a shared cache over the Schaffer problem
// with a surrogate screen layered on top.
func screenedSchaffer(t *testing.T, opt surrogate.Options) (*surrogate.Screened, *objective.CachingEvaluator) {
	t.Helper()
	ce := objective.NewCachingEvaluator([]string{"f1", "f2"}, 4, schaffer)
	s, err := surrogate.NewScreened(schafferSpace(), ce, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, ce
}

// TestSurrogateIslandsDeterministicAcrossGOMAXPROCS is the surrogate
// determinism gate demanded by the screen's design: the model syncs at
// generation barriers in canonical order and screens against frozen
// state, so a fixed seed yields byte-identical fronts however the
// islands are scheduled. CI runs this under -race with GOMAXPROCS 1
// and 4.
func TestSurrogateIslandsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		s, _ := screenedSchaffer(t, surrogate.Options{TopK: 3, MinSamples: 8})
		res, err := Run(schafferSpace(), s, Spec{Strategy: "rs-gde3",
			Config:  StrategyConfig{Options: Options{PopSize: 8, MaxIterations: 8, Stagnation: 9, Seed: 1}},
			Islands: &IslandOptions{Islands: 4, MigrationInterval: 2, Migrants: 2}}, Control{})
		s.Close()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Skipped == 0 {
			t.Fatalf("screen never pruned anything (stats %+v) — the determinism claim would be vacuous", st)
		}
		got, err := json.Marshal(res.Front)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("GOMAXPROCS=%d changes the screened front:\n%s\nvs\n%s", procs, got, want)
		}
	}
}

// TestSurrogateTopKAtPopulationMatchesBaseline: with ScreenTopK at or
// above the population size the screen admits everything, and the
// screened run's front must be byte-for-byte the baseline's.
func TestSurrogateTopKAtPopulationMatchesBaseline(t *testing.T) {
	opt := Options{PopSize: 10, MaxIterations: 10, Stagnation: 11, Seed: 2}

	base := objective.NewCachingEvaluator([]string{"f1", "f2"}, 4, schaffer)
	bres, err := search("rs-gde3", schafferSpace(), base, opt)
	if err != nil {
		t.Fatal(err)
	}

	s, _ := screenedSchaffer(t, surrogate.Options{TopK: opt.PopSize, MinSamples: 5})
	defer s.Close()
	sres, err := search("rs-gde3", schafferSpace(), s, opt)
	if err != nil {
		t.Fatal(err)
	}

	bb, _ := json.Marshal(bres.Front)
	sb, _ := json.Marshal(sres.Front)
	if string(bb) != string(sb) {
		t.Fatalf("ScreenTopK >= population diverged from baseline:\n%s\nvs\n%s", bb, sb)
	}
	if bres.Evaluations != sres.Evaluations {
		t.Fatalf("pass-through screen changed E: %d vs %d", sres.Evaluations, bres.Evaluations)
	}
}

// TestSurrogateScreeningCutsEvaluations: an aggressive screen spends
// fewer real evaluations than the unscreened baseline on the same
// options.
func TestSurrogateScreeningCutsEvaluations(t *testing.T) {
	opt := Options{PopSize: 12, MaxIterations: 12, Stagnation: 13, Seed: 3}

	base := objective.NewCachingEvaluator([]string{"f1", "f2"}, 4, schaffer)
	bres, err := search("rs-gde3", schafferSpace(), base, opt)
	if err != nil {
		t.Fatal(err)
	}

	s, _ := screenedSchaffer(t, surrogate.Options{TopK: 3, MinSamples: 12})
	defer s.Close()
	sres, err := search("rs-gde3", schafferSpace(), s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Evaluations >= bres.Evaluations {
		t.Fatalf("screened E=%d not below baseline E=%d", sres.Evaluations, bres.Evaluations)
	}
	if len(sres.Front) == 0 {
		t.Fatal("screened run produced no front")
	}
	st := s.Stats()
	if st.Skipped == 0 || st.TrainSamples == 0 {
		t.Fatalf("screen did not engage: %+v", st)
	}
}

// TestSurrogateRaceDeterministicAcrossGOMAXPROCS: racing contenders
// share one cache and therefore one model; the round-barrier sync
// keeps the race byte-identical across GOMAXPROCS with the screen on.
func TestSurrogateRaceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		s, _ := screenedSchaffer(t, surrogate.Options{TopK: 3, MinSamples: 8})
		rr, err := raceRun(s, raceTestConfig(), raceTestOptions(), Control{})
		s.Close()
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
			t.Fatalf("GOMAXPROCS=%d changes the screened race outcome:\n%s\nvs\n%s", procs, got, want)
		}
	}
}

// TestSurrogateEveryStrategyCompletes: each registered strategy must
// finish a screened run and produce a front — the per-strategy
// screening support the registry promises. An exhaustive sweep is
// refused the screen by the driver, and is skipped.
func TestSurrogateEveryStrategyCompletes(t *testing.T) {
	for _, name := range StrategyNames() {
		if strat, _ := StrategyByName(name); strat.Exhaustive {
			continue
		}
		s, _ := screenedSchaffer(t, surrogate.Options{TopK: 3, MinSamples: 8})
		cfg := StrategyConfig{
			Options:      Options{PopSize: 8, MaxIterations: 5, Stagnation: 6, Seed: 4},
			RandomBudget: 80,
		}
		res, err := Run(schafferSpace(), s, Spec{Strategy: name, Config: cfg}, Control{})
		s.Close()
		if err != nil {
			t.Fatalf("%s under screen: %v", name, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("%s under screen produced no front", name)
		}
	}
}
