package optimizer_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
	"autotune/internal/testenv"
)

const (
	goldenShapesPath    = "testdata/golden_shapes.json"
	goldenStandingsPath = "testdata/golden_standings.json"
)

// goldenShape pins one search of the package-level golden file: the
// SHA-256 of the front (frontFingerprint: configurations and objective
// vectors in result order), E, the iteration count, the Partial flag
// and how many points AllPoints holds.
type goldenShape struct {
	Front      string `json:"front"`
	Points     int    `json:"points"`
	E          int    `json:"e"`
	Iterations int    `json:"iterations"`
	Partial    bool   `json:"partial"`
	AllPoints  int    `json:"all_points"`
}

// cancellingEval is a serial evaluator over deterministicFn that
// cancels the returned context inside its k-th evaluation, so a search
// is interrupted at a fixed depth whatever the scheduling.
func cancellingEval(k int32) (*objective.CachingEvaluator, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int32
	eval := objective.NewCachingEvaluator([]string{"f1", "f2"}, 1, func(cfg skeleton.Config) []float64 {
		if n.Add(1) == k {
			cancel()
		}
		return deterministicFn(cfg)
	})
	return eval, ctx
}

// goldenShapeRuns are the argument shapes the driver never produces —
// the root golden file cannot see them: the three island layouts a Spec
// can ask for (serial, one island, defaulted islands), explicit migrant
// counts, the one-shot baselines' zero iteration
// count, and a search, a walk, a sweep and a race each cancelled at a
// fixed evaluation.
func goldenShapeRuns() map[string]func() (*optimizer.Result, error) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 12, MaxIterations: 10, Seed: 3}
	walk := optimizer.StrategyConfig{Options: optimizer.Options{Seed: 5}, RandomBudget: 200}
	grid, err := optimizer.RegularGrid(space, []int{6, 6, 4})
	if err != nil {
		panic(err)
	}
	sweep := optimizer.StrategyConfig{Grid: grid}
	run := func(s optimizer.Spec) func() (*optimizer.Result, error) {
		return func() (*optimizer.Result, error) { return optimizer.Run(space, newDetEval(), s, optimizer.Control{}) }
	}
	return map[string]func() (*optimizer.Result, error){
		"rs-gde3/serial":          run(spec("rs-gde3", opt, nil)),
		"rs-gde3/one-island":      run(spec("rs-gde3", opt, &optimizer.IslandOptions{Islands: 1})),
		"rs-gde3/default-islands": run(spec("rs-gde3", opt, &optimizer.IslandOptions{})),
		"gde3/islands-explicit-migrants": run(spec("gde3", opt,
			&optimizer.IslandOptions{Islands: 2, MigrationInterval: 3, Migrants: 1})),
		"motpe":       run(spec("motpe", opt, nil)),
		"random":      run(optimizer.Spec{Strategy: "random", Config: walk}),
		"grid":        run(optimizer.Spec{Strategy: "grid", Config: walk}),
		"brute-force": run(optimizer.Spec{Strategy: "brute-force", Config: sweep}),
		"race":        goldenRace,
		"rs-gde3/cancelled-at-40": func() (*optimizer.Result, error) {
			eval, ctx := cancellingEval(40)
			return optimizer.Run(space, eval, spec("rs-gde3", opt, nil), optimizer.Control{Ctx: ctx})
		},
		"random/cancelled-at-100": func() (*optimizer.Result, error) {
			eval, ctx := cancellingEval(100)
			return optimizer.Run(space, eval, optimizer.Spec{Strategy: "random", Config: walk}, optimizer.Control{Ctx: ctx})
		},
		"brute-force/cancelled-at-100": func() (*optimizer.Result, error) {
			eval, ctx := cancellingEval(100)
			return optimizer.Run(space, eval, optimizer.Spec{Strategy: "brute-force", Config: sweep}, optimizer.Control{Ctx: ctx})
		},
		"race/cancelled-at-150": func() (*optimizer.Result, error) {
			eval, ctx := cancellingEval(150)
			return optimizer.Run(space, eval, goldenRaceSpec(), optimizer.Control{Ctx: ctx})
		},
	}
}

// goldenRaceSpec is the race of the "race" shapes: every default
// contender over the shared evaluator, scored every two generations,
// capped at 300 evaluations.
func goldenRaceSpec() optimizer.Spec {
	return optimizer.Spec{
		Config: optimizer.StrategyConfig{Options: optimizer.Options{PopSize: 12, MaxIterations: 10, Seed: 3}, RandomBudget: 100},
		Race:   &optimizer.RaceOptions{Interval: 2, Budget: 300},
	}
}

// goldenRace is the "race" shape, uncancelled.
func goldenRace() (*optimizer.Result, error) {
	return optimizer.Run(islandSpace(), newDetEval(), goldenRaceSpec(), optimizer.Control{})
}

// TestGoldenRaceStandings holds the standings of the "race" shape —
// every contender's E, generations, front size, hypervolume and score at
// full precision, and where it was eliminated — byte-identical to
// testdata/golden_standings.json, which golden_shapes.json (the merged
// front only) does not reach. -update regenerates it.
func TestGoldenRaceStandings(t *testing.T) {
	res, err := goldenRace()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res.Standings, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, goldenStandingsPath, append(got, '\n'))
}

// TestGoldenShapes holds the searches of goldenShapeRuns byte-identical
// to testdata/golden_shapes.json, generated through the per-strategy
// entry points on the commit before they were folded into Run
// (go test ./internal/optimizer -run GoldenShapes -update regenerates
// it, only for a change meant to move fronts).
func TestGoldenShapes(t *testing.T) {
	got := map[string]goldenShape{}
	for id, run := range goldenShapeRuns() {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = goldenShape{
			Front:      fmt.Sprintf("%x", sha256.Sum256([]byte(frontFingerprint(res.Front)))),
			Points:     len(res.Front),
			E:          res.Evaluations,
			Iterations: res.Iterations,
			Partial:    res.Partial,
			AllPoints:  len(res.AllPoints),
		}
	}
	// The shapes Spec must keep apart: one island is the serial search's
	// points in the merged, canonically sorted order, not its bytes, and
	// a zero IslandOptions is four islands.
	serial, one, four := got["rs-gde3/serial"], got["rs-gde3/one-island"], got["rs-gde3/default-islands"]
	if one.Points != serial.Points || one.E != serial.E || one.Front == serial.Front {
		t.Errorf("one island %+v is not the serial search %+v in another order", one, serial)
	}
	if four.E <= serial.E {
		t.Errorf("defaulted islands E = %d, not above the serial %d", four.E, serial.E)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, goldenShapesPath, append(data, '\n'))
}
