package optimizer

import (
	"context"
	"reflect"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

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
