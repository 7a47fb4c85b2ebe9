package optimizer

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// refMultiRSGDE3 is the joint search with the generation loop of its
// own that it kept before it ran through controlledRun.loop: every
// generation the live regions first all propose, and only then is each
// region's batch evaluated and absorbed. FuzzMultiRSGDE3MatchesReference
// holds MultiRSGDE3 to it.
func refMultiRSGDE3(ctx context.Context, spaces []skeleton.Space, evals []objective.Evaluator, opt Options) ([]*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(spaces) == 0 {
		return nil, errors.New("optimizer: no regions")
	}
	if len(evals) != len(spaces) {
		return nil, fmt.Errorf("optimizer: %d evaluators for %d regions", len(evals), len(spaces))
	}
	if len(opt.InitialPopulation) > 0 {
		return nil, errors.New("optimizer: one InitialPopulation cannot address several regions' spaces")
	}
	for r, sp := range spaces {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("optimizer: region %d: %w", r, err)
		}
	}
	ctrl := Control{Ctx: ctx}
	for _, eval := range evals {
		defer newControlledRun(eval, ctrl, "", "").close()
	}
	rng := stats.NewCountedRand(opt.Seed)
	regions := make([]*gdeIsland, len(spaces))
	for r := range spaces {
		regions[r] = newGDEIsland(spaces[r], evals[r], opt, rng)
	}
	live := make([]*gdeIsland, 0, len(regions))
	trials := make([][]skeleton.Config, len(regions))
	iters, cancelled := 0, ctrl.ctx().Err
	for ; iters < opt.MaxIterations && cancelled() == nil; iters++ {
		live = live[:0]
		for _, g := range regions {
			if !g.done() {
				live = append(live, g)
			}
		}
		if len(live) == 0 {
			break
		}
		for i, g := range live {
			trials[i] = g.propose()
		}
		for i, g := range live {
			g.absorb(trials[i], g.eval.Evaluate(trials[i]))
		}
	}
	out := make([]*Result, len(regions))
	for r, g := range regions {
		out[r] = &Result{Front: g.points(), Evaluations: opt.PopSize * (1 + iters), Iterations: iters, Partial: cancelled() != nil}
	}
	return out, nil
}

// regionEvaluator is one region's ordinary evaluator over fn, counting
// the batches it is handed.
type regionEvaluator struct {
	*objective.CachingEvaluator
	calls int
}

func newRegionEvaluator(fn func(skeleton.Config) []float64) *regionEvaluator {
	return &regionEvaluator{CachingEvaluator: objective.NewCachingEvaluator([]string{"f1", "f2"}, 1, fn)}
}

func (e *regionEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	e.calls++
	return e.CachingEvaluator.Evaluate(cfgs)
}

// shiftedSchaffer is Schaffer's problem with its optimum moved to
// x in [1,3].
func shiftedSchaffer(c skeleton.Config) []float64 {
	x := float64(c[0]) / 100
	return []float64{(x - 1) * (x - 1), (x - 3) * (x - 3)}
}

func TestMultiRSGDE3TwoRegions(t *testing.T) {
	evals := []objective.Evaluator{newRegionEvaluator(schaffer), newRegionEvaluator(shiftedSchaffer)}
	spaces := []skeleton.Space{schafferSpace(), schafferSpace()}
	res, err := MultiRSGDE3(context.Background(), spaces, evals, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("regions = %d", len(res))
	}
	for r, reg := range res {
		if len(reg.Front) == 0 {
			t.Fatalf("region %d: empty front", r)
		}
		if reg.Evaluations != res[0].Evaluations || reg.Iterations != res[0].Iterations {
			t.Fatalf("region %d: E %d / iterations %d are not the shared %d / %d",
				r, reg.Evaluations, reg.Iterations, res[0].Evaluations, res[0].Iterations)
		}
	}
	// Region fronts converge to their own (different) Pareto sets.
	for _, p := range res[0].Front {
		x := float64(p.Payload.(skeleton.Config)[0]) / 100
		if x < -0.3 || x > 2.3 {
			t.Errorf("region 0 x = %v outside [0,2]", x)
		}
	}
	for _, p := range res[1].Front {
		x := float64(p.Payload.(skeleton.Config)[0]) / 100
		if x < 0.7 || x > 3.3 {
			t.Errorf("region 1 x = %v outside [1,3]", x)
		}
	}
}

// The single-region shape of the joint search is the serial search:
// same space, seed and evaluator give Run's rs-gde3 front point for
// point and its generation count. Only E differs by definition —
// program executions there, distinct configurations here.
func TestMultiRSGDE3SingleRegionMatchesShape(t *testing.T) {
	for _, opt := range []Options{{Seed: 5}, {Seed: 7, PopSize: 12, CR: 0.7, F: 0.4, Stagnation: 2, DisableRoughSet: true}} {
		multi, err := MultiRSGDE3(context.Background(), []skeleton.Space{schafferSpace()}, []objective.Evaluator{newRegionEvaluator(schaffer)}, opt)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := search("rs-gde3", schafferSpace(), newRegionEvaluator(schaffer), opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Front) == 0 || !reflect.DeepEqual(multi[0].Front, serial.Front) {
			t.Errorf("seed %d: single-region joint front differs from the serial search's:\n%v\n%v", opt.Seed, multi[0].Front, serial.Front)
		}
		if multi[0].Iterations != serial.Iterations {
			t.Errorf("seed %d: %d joint iterations, %d serial", opt.Seed, multi[0].Iterations, serial.Iterations)
		}
	}
}

// A region whose archive never improves freezes after opt.Stagnation
// generations and its evaluator sees no call from then on, while the
// run goes on for the region still converging.
func TestMultiRSGDE3FrozenRegionSeesNoCall(t *testing.T) {
	flat := newRegionEvaluator(func(skeleton.Config) []float64 { return []float64{1, 1} })
	live := newRegionEvaluator(schaffer)
	res, err := MultiRSGDE3(context.Background(), []skeleton.Space{schafferSpace(), schafferSpace()},
		[]objective.Evaluator{flat, live}, Options{Seed: 2, Stagnation: 3})
	if err != nil {
		t.Fatal(err)
	}
	iters := res[0].Iterations
	if iters <= 3 {
		t.Fatalf("run ended after %d generations; the live region should outlast the flat one", iters)
	}
	// The initial population, then one batch per generation while live.
	if flat.calls != 1+3 {
		t.Errorf("frozen region's evaluator saw %d batches, want %d", flat.calls, 1+3)
	}
	if live.calls != 1+iters {
		t.Errorf("live region's evaluator saw %d batches over %d generations", live.calls, iters)
	}
	if len(res[0].Front) != 1 {
		t.Errorf("flat region front = %v", res[0].Front)
	}
}

// Executions are counted per member slot and generation whatever the
// regions' caches hold: a two-configuration space is all cache hits
// after the first generations and still costs PopSize executions each.
func TestMultiRSGDE3CountsExecutionsNotCacheMisses(t *testing.T) {
	tiny := skeleton.Space{Params: []skeleton.Param{{Name: "x", Min: 0, Max: 1}}}
	ev := newRegionEvaluator(func(c skeleton.Config) []float64 { return []float64{float64(c[0]), float64(1 - c[0])} })
	res, err := MultiRSGDE3(context.Background(), []skeleton.Space{tiny, schafferSpace()},
		[]objective.Evaluator{ev, newRegionEvaluator(schaffer)}, Options{Seed: 3, PopSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * (1 + res[0].Iterations); res[0].Evaluations != want || res[1].Evaluations != want {
		t.Errorf("executions %d / %d, want PopSize × (1 + %d generations) = %d",
			res[0].Evaluations, res[1].Evaluations, res[0].Iterations, want)
	}
	if ev.Evaluations() != 2 {
		t.Errorf("tiny region evaluated %d distinct configurations, want 2", ev.Evaluations())
	}
}

func TestMultiRSGDE3Deterministic(t *testing.T) {
	run := func() []*Result {
		res, err := MultiRSGDE3(context.Background(), []skeleton.Space{schafferSpace(), schafferSpace()},
			[]objective.Evaluator{newRegionEvaluator(schaffer), newRegionEvaluator(shiftedSchaffer)}, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("same seed, different joint results")
	}
}

func TestMultiRSGDE3Validation(t *testing.T) {
	one := []objective.Evaluator{newRegionEvaluator(schaffer)}
	spaces := []skeleton.Space{schafferSpace()}
	if _, err := MultiRSGDE3(context.Background(), nil, nil, Options{}); err == nil {
		t.Error("no regions accepted")
	}
	if _, err := MultiRSGDE3(context.Background(), []skeleton.Space{{}}, one, Options{}); err == nil {
		t.Error("invalid space accepted")
	}
	if _, err := MultiRSGDE3(context.Background(), spaces, nil, Options{}); err == nil {
		t.Error("a region without an evaluator accepted")
	}
	if _, err := MultiRSGDE3(context.Background(), spaces, one, Options{PopSize: -1}); err == nil {
		t.Error("negative population size accepted")
	}
	if _, err := MultiRSGDE3(context.Background(), spaces, one, Options{InitialPopulation: []skeleton.Config{{0, 0}}}); err == nil {
		t.Error("one seed list for several spaces accepted")
	}
}

// TestMultiRSGDE3CancelReturnsPartial cancels the context from inside
// one region's evaluation function after k of its evaluations. Every
// region's result is Partial with a non-empty front, and no evaluator
// is handed a batch after the generation in which the cancel landed:
// the cancelling region none after its own, a region after it in the
// lock-step order at most that generation's.
func TestMultiRSGDE3CancelReturnsPartial(t *testing.T) {
	for _, canceller := range []int{0, 1} {
		for _, k := range []int{13, 30} {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			evals := make([]*regionEvaluator, 2)
			var atCancel [2]int
			n := 0
			for r, fn := range []func(skeleton.Config) []float64{schaffer, shiftedSchaffer} {
				evals[r] = newRegionEvaluator(func(c skeleton.Config) []float64 {
					if r == canceller {
						if n++; n == k {
							atCancel = [2]int{evals[0].calls, evals[1].calls}
							cancel()
						}
					}
					return fn(c)
				})
			}
			res, err := MultiRSGDE3(ctx, []skeleton.Space{schafferSpace(), schafferSpace()},
				[]objective.Evaluator{evals[0], evals[1]}, Options{Seed: 4, PopSize: 10})
			if err != nil {
				t.Fatal(err)
			}
			if n < k {
				t.Fatalf("region %d, k %d: the search ended after %d evaluations, before the cancel", canceller, k, n)
			}
			for r, reg := range res {
				if !reg.Partial || len(reg.Front) == 0 {
					t.Errorf("region %d cancelled after %d: region %d Partial %v with %d front points", canceller, k, r, reg.Partial, len(reg.Front))
				}
				allowed := atCancel[r]
				if r > canceller {
					allowed++
				}
				if evals[r].calls > allowed {
					t.Errorf("region %d cancelled after %d: region %d handed %d batches, %d by the cancel's generation", canceller, k, r, evals[r].calls, allowed)
				}
			}
		}
	}
}

// FuzzMultiRSGDE3MatchesReference runs one to three regions — each over
// one of three landscapes, one of which never improves and freezes its
// region — under any seed, population, generation cap and stagnation
// rule, the invalid ones included, through MultiRSGDE3 and through the
// reference, each on fresh serial caches. A nonzero cancelAt cancels
// the search inside the cancelAt-th evaluation counted over every
// region. Every region's front bytes, E, iteration count and Partial
// flag must match.
func FuzzMultiRSGDE3MatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(0x12), int64(1), int8(8), int8(6), int8(0), uint16(0))
	f.Add(uint8(3), uint8(0x24), int64(4), int8(10), int8(20), int8(3), uint16(0))
	f.Add(uint8(1), uint8(0x00), int64(7), int8(5), int8(12), int8(2), uint16(0))
	f.Add(uint8(2), uint8(0x01), int64(9), int8(6), int8(10), int8(0), uint16(13))
	f.Add(uint8(3), uint8(0x21), int64(2), int8(8), int8(15), int8(4), uint16(47))
	f.Add(uint8(3), uint8(0x06), int64(-3), int8(7), int8(9), int8(2), uint16(150))
	f.Add(uint8(2), uint8(0x00), int64(5), int8(-1), int8(4), int8(0), uint16(0))
	f.Fuzz(func(t *testing.T, n, fns uint8, seed int64, pop, maxIters, stagnation int8, cancelAt uint16) {
		landscapes := []func(skeleton.Config) []float64{schaffer, shiftedSchaffer, func(skeleton.Config) []float64 { return []float64{1, 1} }}
		regions := 1 + int(n%3)
		opt := Options{Seed: seed, PopSize: int(pop % 16), MaxIterations: int(maxIters % 40), Stagnation: int(stagnation % 6)}
		run := func(search func(context.Context, []skeleton.Space, []objective.Evaluator, Options) ([]*Result, error)) ([]*Result, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var k atomic.Int32
			spaces := make([]skeleton.Space, regions)
			evals := make([]objective.Evaluator, regions)
			for r := range spaces {
				fn := landscapes[int(fns>>(2*r)&3)%len(landscapes)]
				spaces[r] = schafferSpace()
				evals[r] = objective.NewCachingEvaluator([]string{"f1", "f2"}, 1, func(c skeleton.Config) []float64 {
					if k.Add(1) == int32(cancelAt) {
						cancel()
					}
					return fn(c)
				})
			}
			return search(ctx, spaces, evals, opt)
		}
		want, wantErr := run(refMultiRSGDE3)
		got, gotErr := run(MultiRSGDE3)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v: MultiRSGDE3 error %v, reference error %v", opt, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		for r := range want {
			g, w := got[r], want[r]
			if pointsKey(g.Front) != pointsKey(w.Front) || g.Evaluations != w.Evaluations ||
				g.Iterations != w.Iterations || g.Partial != w.Partial {
				t.Fatalf("%+v, cancel at %d, region %d: MultiRSGDE3 %d front points, E %d, iterations %d, partial %v; reference %d, %d, %d, %v",
					opt, cancelAt, r, len(g.Front), g.Evaluations, g.Iterations, g.Partial, len(w.Front), w.Evaluations, w.Iterations, w.Partial)
			}
		}
	})
}
