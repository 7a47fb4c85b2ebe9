package optimizer_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/rts"
	"autotune/internal/skeleton"
)

func islandSpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "t1", Kind: skeleton.TileSize, Min: 1, Max: 64},
		{Name: "t2", Kind: skeleton.TileSize, Min: 1, Max: 64},
		{Name: "threads", Kind: skeleton.ThreadCount, Min: 1, Max: 16},
	}}
}

// deterministicFn is a smooth two-objective landscape with a genuine
// trade-off (small tiles favour f1, large favour f2) and no randomness.
func deterministicFn(cfg skeleton.Config) []float64 {
	if len(cfg) != 3 {
		return nil
	}
	a, b, th := float64(cfg[0]), float64(cfg[1]), float64(cfg[2])
	f1 := math.Abs(a-20) + math.Abs(b-30) + 100/th
	f2 := a + b + 3*th
	return []float64{f1, f2}
}

func newDetEval() *objective.CachingEvaluator {
	return objective.NewCachingEvaluator([]string{"f1", "f2"}, 8, deterministicFn)
}

// search runs the named strategy without run control — serially, or as
// the island model when iopt is non-nil.
func search(name string, space skeleton.Space, eval objective.Evaluator, opt optimizer.Options, iopt *optimizer.IslandOptions) (*optimizer.Result, error) {
	return optimizer.Run(space, eval, spec(name, opt, iopt), optimizer.Control{})
}

// frontFingerprint renders a front canonically so two fronts can be
// compared byte for byte.
func frontFingerprint(front []pareto.Point) string {
	var sb strings.Builder
	for _, p := range front {
		cfg, _ := p.Payload.(skeleton.Config)
		fmt.Fprintf(&sb, "%s=%v;", cfg.Key(), p.Objectives)
	}
	return sb.String()
}

// TestIslandDeterminism runs the island driver repeatedly — across
// GOMAXPROCS settings — with a fixed (seed, W, M) and requires
// byte-identical fronts every time. This is the reproducibility
// guarantee documented on the public API.
func TestIslandDeterminism(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 16, MaxIterations: 8, Seed: 7}
	iopt := optimizer.IslandOptions{Islands: 4, MigrationInterval: 2}
	run := func() string {
		res, err := search("rs-gde3", space, newDetEval(), opt, &iopt)
		if err != nil {
			t.Fatal(err)
		}
		return frontFingerprint(res.Front)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	want := run()
	if want == "" {
		t.Fatal("empty front")
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 2; rep++ {
			if got := run(); got != want {
				t.Fatalf("GOMAXPROCS=%d rep %d: front diverged\n got: %s\nwant: %s",
					procs, rep, got, want)
			}
		}
	}
}

// TestIslandDeterminismNSGA2 covers the same guarantee for the NSGA-II
// island driver.
func TestIslandDeterminismNSGA2(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 16, MaxIterations: 8, Seed: 11}
	iopt := optimizer.IslandOptions{Islands: 3, MigrationInterval: 2}
	run := func() string {
		res, err := search("nsga2", space, newDetEval(), opt, &iopt)
		if err != nil {
			t.Fatal(err)
		}
		return frontFingerprint(res.Front)
	}
	want := run()
	for rep := 0; rep < 3; rep++ {
		if got := run(); got != want {
			t.Fatalf("rep %d: front diverged\n got: %s\nwant: %s", rep, got, want)
		}
	}
}

// TestIslandSingleMatchesSerial anchors W=1 to the serial algorithm:
// one island with the serial seed must discover exactly the serial
// front (the island path adds only canonical ordering).
func TestIslandSingleMatchesSerial(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 16, MaxIterations: 10, Seed: 3}
	serial, err := search("rs-gde3", space, newDetEval(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	island, err := search("rs-gde3", space, newDetEval(), opt, &optimizer.IslandOptions{Islands: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Evaluations != island.Evaluations {
		t.Fatalf("evaluations diverged: serial %d, island %d", serial.Evaluations, island.Evaluations)
	}
	want := map[string]bool{}
	for _, p := range serial.Front {
		want[frontFingerprint([]pareto.Point{p})] = true
	}
	if len(island.Front) != len(serial.Front) {
		t.Fatalf("front sizes diverged: serial %d, island %d", len(serial.Front), len(island.Front))
	}
	for _, p := range island.Front {
		if !want[frontFingerprint([]pareto.Point{p})] {
			t.Fatalf("island point %v not in serial front", p)
		}
	}
}

// TestIslandEvaluatorFaults drives the island driver over an evaluator
// whose failures come from the runtime fault injector: the search must
// absorb failed evaluations (nil vectors) without panicking, keep E
// strictly to successful distinct evaluations, and still produce a
// mutually non-dominating front. Run under -race this also exercises
// the shared-cache and injector locking.
func TestIslandEvaluatorFaults(t *testing.T) {
	injector := &rts.FaultInjector{ErrorRate: 0.3, Seed: 5}
	var failures atomic.Int64
	fn := func(cfg skeleton.Config) []float64 {
		if err := injector.Apply(0); err != nil {
			if !errors.Is(err, rts.ErrInjected) {
				t.Errorf("unexpected injector error: %v", err)
			}
			failures.Add(1)
			return nil
		}
		return deterministicFn(cfg)
	}
	eval := objective.NewCachingEvaluator([]string{"f1", "f2"}, 8, fn)
	res, err := search("rs-gde3", islandSpace(), eval, optimizer.Options{
		PopSize: 16, MaxIterations: 8, Seed: 9,
	}, &optimizer.IslandOptions{Islands: 4, MigrationInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if failures.Load() == 0 {
		t.Fatal("fault injector never fired; the test exercised nothing")
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front despite partial failures")
	}
	for i, p := range res.Front {
		for j, q := range res.Front {
			if i != j && pareto.Dominates(p.Objectives, q.Objectives) {
				t.Fatalf("front point %v dominates %v", p.Objectives, q.Objectives)
			}
		}
	}
	injected, _ := injector.Counts()
	if int64(injected) != failures.Load() {
		t.Fatalf("injector reports %d errors, evaluator observed %d", injected, failures.Load())
	}
}

// TestIslandWallClockSpeedup is the acceptance benchmark of the island
// model: with a 5ms-per-evaluation evaluator and an equal generation
// budget (serial runs W× the generations of the W-island run), four
// islands must finish at least 2× faster than the serial driver —
// sequential generation depth is traded for parallel width.
func TestIslandWallClockSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test skipped in -short mode")
	}
	space := islandSpace()
	const delay = 5 * time.Millisecond
	const w = 4
	slowEval := func() *objective.CachingEvaluator {
		return objective.NewCachingEvaluator([]string{"f1", "f2"}, w*64,
			func(cfg skeleton.Config) []float64 {
				time.Sleep(delay)
				return deterministicFn(cfg)
			})
	}
	opt := optimizer.Options{PopSize: 24, Seed: 1, Stagnation: 1 << 20}

	serialOpt := opt
	serialOpt.MaxIterations = 16
	start := time.Now()
	serial, err := search("rs-gde3", space, slowEval(), serialOpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	serialTime := time.Since(start)

	islandOpt := opt
	islandOpt.MaxIterations = 16 / w
	start = time.Now()
	island, err := search("rs-gde3", space, slowEval(), islandOpt,
		&optimizer.IslandOptions{Islands: w, MigrationInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	islandTime := time.Since(start)

	if len(serial.Front) == 0 || len(island.Front) == 0 {
		t.Fatal("empty front")
	}
	ratio := float64(serialTime) / float64(islandTime)
	t.Logf("serial %v (E=%d) vs %d islands %v (E=%d): %.2fx",
		serialTime, serial.Evaluations, w, islandTime, island.Evaluations, ratio)
	if ratio < 2 {
		t.Fatalf("islands only %.2fx faster than serial (serial %v, islands %v); want >= 2x",
			ratio, serialTime, islandTime)
	}
}

// TestGDE3IslandsDisablesRoughSet smoke-tests the GDE3 island variant
// and checks it behaves deterministically like its serial ablation.
func TestGDE3IslandsDisablesRoughSet(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 12, MaxIterations: 6, Seed: 5}
	iopt := optimizer.IslandOptions{Islands: 2, MigrationInterval: 3}
	a, err := search("gde3", space, newDetEval(), opt, &iopt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := search("gde3", space, newDetEval(), opt, &iopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) == 0 {
		t.Fatal("empty front")
	}
	if frontFingerprint(a.Front) != frontFingerprint(b.Front) {
		t.Fatal("GDE3 islands not deterministic")
	}
}

// TestIslandOptionsValidation rejects out-of-range island parameters
// (zero values select defaults; negatives are errors).
func TestIslandOptionsValidation(t *testing.T) {
	space := islandSpace()
	opt := optimizer.Options{PopSize: 8, MaxIterations: 2}
	cases := []optimizer.IslandOptions{
		{Islands: -1},
		{Islands: 2, MigrationInterval: -3},
		{Islands: 2, Migrants: -1},
	}
	for _, iopt := range cases {
		for _, name := range []string{"rs-gde3", "nsga2"} {
			if _, err := search(name, space, newDetEval(), opt, &iopt); err == nil {
				t.Fatalf("%s accepted invalid island options %+v", name, iopt)
			}
		}
	}
	for _, name := range []string{"rs-gde3", "nsga2"} {
		if _, err := search(name, skeleton.Space{}, newDetEval(), opt, &optimizer.IslandOptions{}); err == nil {
			t.Fatalf("%s islands accepted an empty space", name)
		}
	}
}

// TestRunRefusesIslandsTheStrategyDoesNotDeclare: an island Spec is
// accepted exactly by the strategies that declare Islands. No island
// wrapper ever existed for grid, motpe and random, so a Spec must not
// quietly open that path.
func TestRunRefusesIslandsTheStrategyDoesNotDeclare(t *testing.T) {
	opt := optimizer.Options{PopSize: 8, MaxIterations: 2, Seed: 1}
	var refused []string
	for _, name := range optimizer.StrategyNames() {
		strat, err := optimizer.StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, err = search(name, islandSpace(), newDetEval(), opt, &optimizer.IslandOptions{Islands: 2})
		if (err == nil) != strat.Islands {
			t.Errorf("%s: island run error = %v, strategy declares Islands = %v", name, err, strat.Islands)
		}
		if err != nil {
			refused = append(refused, name)
			if !strings.Contains(err.Error(), "island model") {
				t.Errorf("%s: refusal does not name the island model: %v", name, err)
			}
		}
	}
	if want := []string{"brute-force", "grid", "motpe", "random"}; !slices.Equal(refused, want) {
		t.Errorf("island model refused for %v, want %v", refused, want)
	}
}
