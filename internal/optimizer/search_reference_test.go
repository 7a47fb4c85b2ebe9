package optimizer

// The two searches that ran outside Run before brute force became a
// registered strategy and a race a Spec field, kept as references:
// refBruteForceControlled and refRaceControlled are the entry points as
// they stood, each with its own validation and control wiring. The
// fuzzers below hold Run to them — the same front bytes, E, iterations,
// Partial flag, AllPoints and standings, and the same refusals — but for
// the round a race's cancel lands in, which Run counts.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// refBruteForceControlled exhaustively evaluates every configuration of
// the grid, 64 a chunk, and returns the Pareto front plus all evaluated
// points; AllPoints is only populated for complete sweeps.
func refBruteForceControlled(space skeleton.Space, eval objective.Evaluator, grid Grid, ctrl Control) (*Result, error) {
	if ctrl.Resume != nil {
		return nil, fmt.Errorf("optimizer: brute force keeps no generation state; resume needs an evolutionary method")
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(grid) != space.Dim() {
		return nil, fmt.Errorf("optimizer: grid dims %d != space dims %d", len(grid), space.Dim())
	}
	ctrl.Checkpointer = nil
	run := newControlledRun(eval, ctrl, "brute-force", "")
	defer run.close()
	w := &walker{eval: eval, cfgs: grid.configs(space), chunk: 64, archive: pareto.NewArchive(), keepAll: true}
	_, partial, err := run.loop([]islandEvolver{w}, len(w.cfgs), false, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Front: w.points(), Evaluations: run.totalE(), Partial: partial}
	if !partial {
		res.AllPoints = w.all
	}
	return res, nil
}

// refRaceOptions applies the race defaults — every registered strategy
// but the exhaustive sweep, which was not registered — and validates.
func refRaceOptions(o RaceOptions) (RaceOptions, error) {
	if len(o.Strategies) == 0 {
		for _, name := range StrategyNames() {
			if s, _ := StrategyByName(name); !s.Exhaustive {
				o.Strategies = append(o.Strategies, name)
			}
		}
	}
	if o.Interval == 0 {
		o.Interval = 5
	}
	if o.MinSurvivors == 0 {
		o.MinSurvivors = 1
	}
	if o.Interval < 1 {
		return o, fmt.Errorf("optimizer: race interval %d < 1", o.Interval)
	}
	if o.Budget < 0 {
		return o, fmt.Errorf("optimizer: race budget %d < 0", o.Budget)
	}
	if o.MinSurvivors < 1 {
		return o, fmt.Errorf("optimizer: race needs at least one survivor, got %d", o.MinSurvivors)
	}
	if len(o.Strategies) < 2 {
		return o, fmt.Errorf("optimizer: a race needs at least two strategies, got %v", o.Strategies)
	}
	seen := map[string]bool{}
	for _, name := range o.Strategies {
		if seen[name] {
			return o, fmt.Errorf("optimizer: strategy %q raced twice", name)
		}
		seen[name] = true
		if _, err := StrategyByName(name); err != nil {
			return o, err
		}
	}
	return o, nil
}

// refRaceControlled runs registered strategies over the shared evaluator
// under the given Control and returns the merged result and the
// standings.
func refRaceControlled(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, ropt RaceOptions, ctrl Control) (*Result, []Standing, error) {
	if ctrl.Resume != nil {
		return nil, nil, fmt.Errorf("optimizer: a race keeps heterogeneous per-strategy state and cannot resume; checkpoint a single strategy instead")
	}
	ctrl.Checkpointer = nil
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	ropt, err := refRaceOptions(ropt)
	if err != nil {
		return nil, nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, nil, err
	}
	run := newControlledRun(eval, ctrl, "race", "")
	defer run.close()
	shared := objective.Evaluator(eval)
	if ropt.Budget > 0 {
		shared = &budgetEvaluator{inner: eval, e0: run.e0, budget: ropt.Budget}
	}
	contenders := make([]*contender, len(ropt.Strategies))
	for i, name := range ropt.Strategies {
		strat, err := StrategyByName(name)
		if err != nil {
			return nil, nil, err
		}
		ccfg := strat.Normalize(space, cfg)
		maxGens := strat.MaxGenerations(ccfg)
		if ropt.Budget > 0 {
			maxGens = math.MaxInt
		}
		contenders[i] = &contender{strat: strat, eval: newAttributedEvaluator(shared), maxGens: maxGens}
		contenders[i].islandEvolver = strat.New(space, contenders[i].eval, ccfg, ccfg.Options.Seed)
	}
	live := func(c *contender) bool { return !c.eliminated && !c.islandEvolver.done() && c.gens < c.maxGens }
	run.sync()
	ctx := ctrl.ctx()
	globalE := func() int { return eval.Evaluations() - run.e0 }
	gens := 0
	partial := false
	for {
		if ctx.Err() != nil {
			partial = true
			break
		}
		if ropt.Budget > 0 && globalE() >= ropt.Budget {
			break
		}
		stepped := false
		for _, c := range contenders {
			if !live(c) {
				continue
			}
			if ropt.Budget > 0 && globalE() >= ropt.Budget {
				break
			}
			c.islandEvolver.step()
			c.gens++
			stepped = true
			if ctx.Err() != nil {
				partial = true
				break
			}
		}
		if partial || !stepped {
			break
		}
		gens++
		run.sync()
		if gens%ropt.Interval == 0 {
			raceEliminate(contenders, ropt.MinSurvivors, gens)
		}
	}
	standings := raceStandings(contenders)
	return &Result{
		Front:       mergeFronts(len(contenders), func(i int) []pareto.Point { return contenders[i].points() }),
		Evaluations: run.totalE(),
		Iterations:  gens,
		Partial:     partial,
	}, standings, nil
}

// pointsKey renders points canonically — configurations and objective
// vectors in the given order — so two results compare byte for byte.
func pointsKey(points []pareto.Point) string {
	var sb strings.Builder
	for _, p := range points {
		cfg, _ := p.Payload.(skeleton.Config)
		fmt.Fprintf(&sb, "%s=%v;", cfg.Key(), p.Objectives)
	}
	return sb.String()
}

// sweepFn is a two-objective landscape over any number of dimensions
// on which about one configuration in seven fails.
func sweepFn(cfg skeleton.Config) []float64 {
	var a, b int64
	for i, v := range cfg {
		a += v * int64(i+1)
		b += (v - 7) * (v - 7)
	}
	if (a+b)%7 == 3 {
		return nil
	}
	return []float64{float64(a), float64(b)}
}

// FuzzBruteForceMatchesReference sweeps small random spaces and grids —
// a grid that does not fit its space now and then, and a sweep cancelled
// inside its k-th evaluation — through Run and through the reference,
// each on a fresh serial evaluator.
func FuzzBruteForceMatchesReference(f *testing.F) {
	f.Add([]byte{6, 4, 3, 9, 2, 5}, uint16(0), false)
	f.Add([]byte{64, 12, 64, 12, 16, 8}, uint16(100), false)
	f.Add([]byte{64, 6, 64, 6, 16, 4}, uint16(144), false)
	f.Add([]byte{10, 10}, uint16(1), false)
	f.Add([]byte{3, 2, 3, 2}, uint16(0), true)
	f.Fuzz(func(t *testing.T, dims []byte, cancelAt uint16, misfit bool) {
		var space skeleton.Space
		var points []int
		for i := 0; i+1 < len(dims) && len(points) < 3; i += 2 {
			space.Params = append(space.Params, skeleton.Param{Name: fmt.Sprintf("p%d", i), Min: 1, Max: 1 + int64(dims[i]%80)})
			points = append(points, 1+int(dims[i+1]%13))
		}
		if len(points) == 0 {
			return
		}
		grid, err := RegularGrid(space, points)
		if err != nil {
			t.Fatal(err)
		}
		if misfit {
			grid = append(grid, []int64{1})
		}
		sweep := func(run func(objective.Evaluator, Control) (*Result, error)) (*Result, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int32
			eval := objective.NewCachingEvaluator([]string{"a", "b"}, 1, func(cfg skeleton.Config) []float64 {
				if n.Add(1) == int32(cancelAt) {
					cancel()
				}
				return sweepFn(cfg)
			})
			return run(eval, Control{Ctx: ctx})
		}
		want, wantErr := sweep(func(e objective.Evaluator, ctrl Control) (*Result, error) {
			return refBruteForceControlled(space, e, grid, ctrl)
		})
		got, gotErr := sweep(func(e objective.Evaluator, ctrl Control) (*Result, error) {
			return Run(space, e, Spec{Strategy: "brute-force", Config: StrategyConfig{Grid: grid}}, ctrl)
		})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("Run error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if pointsKey(got.Front) != pointsKey(want.Front) || got.Evaluations != want.Evaluations ||
			got.Iterations != want.Iterations || got.Partial != want.Partial || pointsKey(got.AllPoints) != pointsKey(want.AllPoints) {
			t.Fatalf("Run: %d front points, E %d, iterations %d, partial %v, %d all points; reference: %d, %d, %d, %v, %d",
				len(got.Front), got.Evaluations, got.Iterations, got.Partial, len(got.AllPoints),
				len(want.Front), want.Evaluations, want.Iterations, want.Partial, len(want.AllPoints))
		}
	})
}

// FuzzRaceMatchesReference races contender subsets — in rotated order,
// under any interval, budget, survivor count, population and seed, the
// invalid ones included — through Run and through the reference, each
// on a fresh shared cache. A nonzero cancelAt cancels the race inside
// its cancelAt-th evaluation, on a serial cache so that the cancel lands
// at the same place in both.
func FuzzRaceMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), int8(2), int16(150), int8(2), uint8(4), int64(1), uint16(0))
	f.Add(uint8(0x3f), uint8(2), int8(1), int16(60), int8(1), uint8(0), int64(3), uint16(0))
	f.Add(uint8(0x21), uint8(1), int8(3), int16(0), int8(0), uint8(2), int64(7), uint16(0))
	f.Add(uint8(0x12), uint8(0), int8(5), int16(90), int8(3), uint8(7), int64(-2), uint16(0))
	f.Add(uint8(0x01), uint8(0), int8(2), int16(100), int8(1), uint8(4), int64(1), uint16(0))
	f.Add(uint8(0x0f), uint8(0), int8(-1), int16(-5), int8(-1), uint8(4), int64(1), uint16(0))
	f.Add(uint8(0), uint8(0), int8(2), int16(0), int8(1), uint8(4), int64(1), uint16(50))
	f.Add(uint8(0x3f), uint8(1), int8(1), int16(90), int8(1), uint8(2), int64(5), uint16(29))
	f.Add(uint8(0x07), uint8(0), int8(3), int16(0), int8(2), uint8(6), int64(2), uint16(120))
	f.Fuzz(func(t *testing.T, mask, rot uint8, interval int8, budget int16, survivors int8, pop uint8, seed int64, cancelAt uint16) {
		ropt := RaceOptions{Interval: int(interval % 7), Budget: int(budget % 400), MinSurvivors: int(survivors % 4)}
		if contenders, _ := (RaceOptions{}).Resolve(); mask != 0 {
			for i := range contenders.Strategies {
				name := contenders.Strategies[(i+int(rot))%len(contenders.Strategies)]
				if mask&(1<<i) != 0 {
					ropt.Strategies = append(ropt.Strategies, name)
				}
			}
		}
		cfg := StrategyConfig{Options: Options{PopSize: 4 + int(pop%8), MaxIterations: 6, Stagnation: 7, Seed: seed}, RandomBudget: 64}
		race := func(run func(objective.Evaluator, Control) (*Result, []Standing, error)) (*Result, []Standing, error) {
			if cancelAt == 0 {
				return run(objective.NewCachingEvaluator([]string{"f1", "f2"}, 4, schaffer), Control{})
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int32
			eval := objective.NewCachingEvaluator([]string{"f1", "f2"}, 1, func(cfg skeleton.Config) []float64 {
				if n.Add(1) == int32(cancelAt) {
					cancel()
				}
				return schaffer(cfg)
			})
			return run(eval, Control{Ctx: ctx})
		}
		want, wantStandings, wantErr := race(func(e objective.Evaluator, ctrl Control) (*Result, []Standing, error) {
			return refRaceControlled(schafferSpace(), e, cfg, ropt, ctrl)
		})
		got, _, gotErr := race(func(e objective.Evaluator, ctrl Control) (*Result, []Standing, error) {
			res, err := Run(schafferSpace(), e, Spec{Config: cfg, Race: &ropt}, ctrl)
			return res, nil, err
		})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v: Run error %v, reference error %v", ropt, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		// The reference does not count the round its cancel landed in;
		// Run counts it, as every other search counts the generation in
		// which its cancel landed. A cancel in the initial states lands
		// in no round.
		iters := got.Iterations == want.Iterations || want.Partial && got.Iterations == want.Iterations+1
		if pointsKey(got.Front) != pointsKey(want.Front) || got.Evaluations != want.Evaluations ||
			!iters || got.Partial != want.Partial {
			t.Fatalf("%+v, cancel at %d: Run: %d front points, E %d, iterations %d, partial %v; reference: %d, %d, %d, %v",
				ropt, cancelAt, len(got.Front), got.Evaluations, got.Iterations, got.Partial,
				len(want.Front), want.Evaluations, want.Iterations, want.Partial)
		}
		if !reflect.DeepEqual(got.Standings, wantStandings) {
			t.Fatalf("%+v, cancel at %d: Run standings %+v, reference %+v", ropt, cancelAt, got.Standings, wantStandings)
		}
	})
}
