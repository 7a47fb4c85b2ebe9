package objective

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"autotune/internal/skeleton"
)

// countingFn builds an EvalFunc that counts raw invocations and fails
// configurations whose first component is negative.
func countingFn(calls *atomic.Int64) EvalFunc {
	return func(cfg skeleton.Config) []float64 {
		calls.Add(1)
		if len(cfg) == 0 || cfg[0] < 0 {
			return nil
		}
		return []float64{float64(cfg[0]), float64(cfg[0]) * 2}
	}
}

// evaluatorKind builds a caching evaluator around fn one of the two
// ways a batch can run.
type evaluatorKind struct {
	name  string
	build func(names []string, fn EvalFunc) *CachingEvaluator
}

// evaluatorKinds are the two ways: on workers at parallelism p, as
// NewCachingEvaluator's and Measured's batches run, and inline, in the
// calling goroutine, as a Sim's do.
func evaluatorKinds(p int) []evaluatorKind {
	return []evaluatorKind{
		{"workers", func(names []string, fn EvalFunc) *CachingEvaluator { return NewCachingEvaluator(names, p, fn) }},
		{"inline", func(names []string, fn EvalFunc) *CachingEvaluator {
			return newInlineEvaluator(names, func(_ context.Context, cfg skeleton.Config, _ []float64) ([]float64, error) {
				return fn(cfg), nil
			})
		}},
	}
}

func TestCachingEvaluatorDedupAcrossBatches(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 4, countingFn(&calls))
	cfg := skeleton.Config{7}
	c.Evaluate([]skeleton.Config{cfg, cfg, cfg})
	c.Evaluate([]skeleton.Config{cfg})
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn called %d times, want 1", got)
	}
	if c.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1", c.Evaluations())
	}
}

func TestCachingEvaluatorFailuresCachedNotCounted(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 2, countingFn(&calls))
	out := c.Evaluate([]skeleton.Config{{-1}, {3}})
	if out[0] != nil || out[1] == nil {
		t.Fatalf("out = %v", out)
	}
	if c.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1 (failure must not count)", c.Evaluations())
	}
	c.Evaluate([]skeleton.Config{{-1}})
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn called %d times, want 2 (failures stay cached)", got)
	}
}

// TestCachingEvaluatorConcurrentBatches drives many concurrent callers
// over an overlapping key set: every distinct key must be evaluated
// exactly once process-wide (the shared-cache guarantee the island
// optimizer depends on), and all callers must observe identical
// results.
func TestCachingEvaluatorConcurrentBatches(t *testing.T) {
	for _, kind := range evaluatorKinds(8) {
		t.Run(kind.name, func(t *testing.T) {
			var calls atomic.Int64
			c := kind.build([]string{"a", "b"}, countingFn(&calls))
			const callers = 16
			const keys = 10
			results := make([][][]float64, callers)
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					batch := make([]skeleton.Config, keys)
					for i := range batch {
						batch[i] = skeleton.Config{int64(i)}
					}
					results[w] = c.Evaluate(batch)
				}(w)
			}
			wg.Wait()
			if got := calls.Load(); got != keys {
				t.Fatalf("fn called %d times, want %d (one per distinct key)", got, keys)
			}
			if c.Evaluations() != keys {
				t.Fatalf("evaluations = %d, want %d", c.Evaluations(), keys)
			}
			for w := 1; w < callers; w++ {
				for i := range results[w] {
					if results[w][i][0] != results[0][i][0] {
						t.Fatalf("caller %d observed %v at %d, caller 0 observed %v",
							w, results[w][i], i, results[0][i])
					}
				}
			}
		})
	}
}

// TestCachingEvaluatorSerializedAtParallelism1 asserts the global
// concurrency bound spans batches: with parallelism 1, two concurrent
// batches may never overlap inside fn (the Measured guarantee).
func TestCachingEvaluatorSerializedAtParallelism1(t *testing.T) {
	var inside atomic.Int64
	c := NewCachingEvaluator([]string{"a"}, 1, func(cfg skeleton.Config) []float64 {
		if inside.Add(1) > 1 {
			t.Error("two evaluations in flight despite parallelism 1")
		}
		defer inside.Add(-1)
		return []float64{float64(cfg[0])}
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.Evaluate([]skeleton.Config{{int64(w * 2)}, {int64(w*2 + 1)}})
		}(w)
	}
	wg.Wait()
}

// TestCachingEvaluatorPrime covers the warm-start hook: primed entries
// short-circuit evaluation without counting toward E, nil primes record
// known failures, and existing cache entries win over later primes.
func TestCachingEvaluatorPrime(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 2, countingFn(&calls))
	if !c.Prime(skeleton.Config{5}, []float64{50, 100}) {
		t.Fatal("first prime rejected")
	}
	if c.Prime(skeleton.Config{5}, []float64{51, 101}) {
		t.Fatal("re-prime of a cached key accepted")
	}
	if !c.Prime(skeleton.Config{6}, nil) {
		t.Fatal("failure prime rejected")
	}
	out := c.Evaluate([]skeleton.Config{{5}, {6}})
	if calls.Load() != 0 {
		t.Fatalf("fn ran %d times for primed keys", calls.Load())
	}
	if c.Evaluations() != 0 {
		t.Fatalf("E = %d after primed-only requests, want 0", c.Evaluations())
	}
	if out[0][0] != 50 || out[1] != nil {
		t.Fatalf("primed results = %v", out)
	}
	// An already-evaluated key rejects priming too.
	c.EvaluateOne(skeleton.Config{7})
	if c.Prime(skeleton.Config{7}, []float64{0, 0}) {
		t.Fatal("prime overwrote an evaluated entry")
	}
}

// TestCachingEvaluatorObserver: the observer is called once per batch
// with that batch's fresh evaluations in batch order — each exactly
// once, not for cache hits, primed entries, or in-flight followers —
// sees failures as nil objectives, and is not called for a batch with
// nothing fresh.
func TestCachingEvaluatorObserver(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 4, countingFn(&calls))
	var mu sync.Mutex
	seen := map[string][]float64{}
	var batches [][]string
	detach := c.AddObserver(func(cfgs []skeleton.Config, _ []string, objs [][]float64) {
		mu.Lock()
		defer mu.Unlock()
		if len(cfgs) != len(objs) {
			t.Errorf("observer handed %d configurations and %d results", len(cfgs), len(objs))
		}
		var keys []string
		for i, cfg := range cfgs {
			if _, dup := seen[cfg.Key()]; dup {
				t.Errorf("observer saw %v twice", cfg)
			}
			seen[cfg.Key()] = objs[i]
			keys = append(keys, cfg.Key())
		}
		batches = append(batches, keys)
	})
	c.Prime(skeleton.Config{9}, []float64{1, 2})
	c.Evaluate([]skeleton.Config{{1}, {1}, {-1}, {9}})
	c.Evaluate([]skeleton.Config{{1}})           // all hits: no call
	c.Evaluate([]skeleton.Config{{5}, {1}, {4}}) // second call, batch order
	mu.Lock()
	defer mu.Unlock()
	want := [][]string{
		{skeleton.Config{1}.Key(), skeleton.Config{-1}.Key()},
		{skeleton.Config{5}.Key(), skeleton.Config{4}.Key()},
	}
	if !reflect.DeepEqual(batches, want) {
		t.Fatalf("observer was handed %v, want %v", batches, want)
	}
	if objs := seen[skeleton.Config{1}.Key()]; len(objs) != 2 || objs[0] != 1 {
		t.Fatalf("observed objectives = %v", objs)
	}
	if objs, ok := seen[skeleton.Config{-1}.Key()]; !ok || objs != nil {
		t.Fatalf("failure observation = %v (present %v)", objs, ok)
	}
	// Detaching stops notifications.
	detach()
	c.EvaluateOne(skeleton.Config{2})
	if len(batches) != 2 {
		t.Fatal("observer fired after detach")
	}
}

// TestObserverSeesWhatACancelledBatchCompleted: a batch cut short
// reports the evaluations that finished before the context fired —
// once, in batch order — and none of the withdrawn ones.
func TestObserverSeesWhatACancelledBatchCompleted(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 1, countingFn(&calls))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.SetContext(ctx)
	c.WrapEvalFunc(func(next CtxEvalFunc) CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			objs, err := next(ctx, cfg, dst)
			if cfg[0] == 3 {
				cancel()
			}
			return objs, err
		}
	})
	var got [][]int64
	c.AddObserver(func(cfgs []skeleton.Config, _ []string, _ [][]float64) {
		var batch []int64
		for _, cfg := range cfgs {
			batch = append(batch, cfg[0])
		}
		got = append(got, batch)
	})
	out := c.Evaluate([]skeleton.Config{{1}, {2}, {3}, {4}, {5}})
	if out[2] == nil || out[3] != nil || out[4] != nil {
		t.Fatalf("batch results %v: want three completed, two withdrawn", out)
	}
	if want := [][]int64{{1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("observer was handed %v, want %v", got, want)
	}
	if c.Evaluations() != 3 {
		t.Fatalf("E = %d, want 3", c.Evaluations())
	}
}

// TestObserverExactlyOnceUnderConcurrentBatches: batches that overlap —
// each following the other's leaders — report concurrently, and every
// distinct configuration still reaches the observer exactly once, from
// the batch that led it. Run under -race.
func TestObserverExactlyOnceUnderConcurrentBatches(t *testing.T) {
	for _, kind := range evaluatorKinds(4) {
		t.Run(kind.name, func(t *testing.T) {
			var calls atomic.Int64
			c := kind.build([]string{"a", "b"}, countingFn(&calls))
			var mu sync.Mutex
			seen := map[string]int{}
			c.AddObserver(func(cfgs []skeleton.Config, _ []string, objs [][]float64) {
				mu.Lock()
				defer mu.Unlock()
				for i, cfg := range cfgs {
					seen[cfg.Key()]++
					if len(objs[i]) != 2 || objs[i][0] != float64(cfg[0]) {
						t.Errorf("observer handed %v for %v", objs[i], cfg)
					}
				}
			})
			const batches, size, distinct = 8, 40, 100
			var wg sync.WaitGroup
			for b := 0; b < batches; b++ {
				wg.Add(1)
				go func(b int) {
					defer wg.Done()
					cfgs := make([]skeleton.Config, size)
					for i := range cfgs {
						cfgs[i] = skeleton.Config{int64((b*17+i*3)%distinct + 1)}
					}
					c.Evaluate(cfgs)
				}(b)
			}
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != c.Evaluations() || int(calls.Load()) != len(seen) {
				t.Fatalf("observer saw %d configurations, E = %d, fn ran %d times", len(seen), c.Evaluations(), calls.Load())
			}
			for key, n := range seen {
				if n != 1 {
					t.Fatalf("configuration %s was reported %d times", key, n)
				}
			}
		})
	}
}

// TestCachingEvaluatorParallelismClamp: non-positive parallelism is
// clamped to 1 rather than producing an unusable evaluator.
func TestCachingEvaluatorParallelismClamp(t *testing.T) {
	c := NewCachingEvaluator([]string{"a"}, 0, func(cfg skeleton.Config) []float64 {
		return []float64{float64(cfg[0])}
	})
	objs := c.Evaluate([]skeleton.Config{{4}})
	if len(objs) != 1 || objs[0][0] != 4 {
		t.Fatalf("clamped evaluator broken: %v", objs)
	}
	if c.Evaluations() != 1 {
		t.Fatalf("E = %d, want 1", c.Evaluations())
	}
}

// TestCachingEvaluatorPrimeObserver pins the two-channel observer
// contract the surrogate trains on: evaluation observers fire exactly
// once per fresh evaluation and never for primed entries; prime
// observers fire exactly once per inserted primed entry (rejected
// duplicates stay silent) and never for fresh evaluations. No result
// is delivered on both channels.
func TestCachingEvaluatorPrimeObserver(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 2, countingFn(&calls))
	var mu sync.Mutex
	evaluated := map[string][]float64{}
	primed := map[string][]float64{}
	c.AddObserver(func(cfgs []skeleton.Config, _ []string, objs [][]float64) {
		mu.Lock()
		defer mu.Unlock()
		for i, cfg := range cfgs {
			if _, dup := evaluated[cfg.Key()]; dup {
				t.Errorf("evaluation observer saw %v twice", cfg)
			}
			evaluated[cfg.Key()] = objs[i]
		}
	})
	remove := c.AddPrimeObserver(func(cfg skeleton.Config, objs []float64) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := primed[cfg.Key()]; dup {
			t.Errorf("prime observer fired twice for %v", cfg)
		}
		primed[cfg.Key()] = objs
	})

	c.Prime(skeleton.Config{3}, []float64{30, 60}) // inserted -> prime observer
	c.Prime(skeleton.Config{3}, []float64{31, 61}) // duplicate -> silent
	c.Prime(skeleton.Config{4}, nil)               // known failure -> prime observer, nil
	c.Evaluate([]skeleton.Config{{1}, {3}, {4}})   // one fresh eval, two cache hits
	c.Prime(skeleton.Config{1}, []float64{0, 0})   // evaluated key -> rejected, silent

	mu.Lock()
	if len(evaluated) != 1 || evaluated[skeleton.Config{1}.Key()] == nil {
		t.Fatalf("evaluation observer saw %v, want exactly the fresh eval of {1}", evaluated)
	}
	if len(primed) != 2 {
		t.Fatalf("prime observer saw %d keys, want 2: %v", len(primed), primed)
	}
	if objs, ok := primed[skeleton.Config{4}.Key()]; !ok || objs != nil {
		t.Fatalf("known-failure prime observation = %v (present %v)", objs, ok)
	}
	for key := range primed {
		if _, both := evaluated[key]; both {
			t.Fatalf("key %s delivered on both observer channels", key)
		}
	}
	mu.Unlock()

	// Removal stops notifications; insertion still succeeds.
	remove()
	if !c.Prime(skeleton.Config{5}, []float64{50, 100}) {
		t.Fatal("prime after observer removal rejected")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(primed) != 2 {
		t.Fatal("prime observer fired after removal")
	}
}

// TestCachingEvaluatorLookup: Lookup peeks at completed results —
// primed or evaluated, including cached failures — without ever
// triggering an evaluation.
func TestCachingEvaluatorLookup(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 2, countingFn(&calls))
	if _, ok := c.Lookup(skeleton.Config{1}); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	c.Prime(skeleton.Config{1}, []float64{10, 20})
	c.EvaluateOne(skeleton.Config{2})
	c.EvaluateOne(skeleton.Config{-1})
	before := calls.Load()
	if objs, ok := c.Lookup(skeleton.Config{1}); !ok || objs[0] != 10 {
		t.Fatalf("primed Lookup = %v, %v", objs, ok)
	}
	if objs, ok := c.Lookup(skeleton.Config{2}); !ok || objs[0] != 2 {
		t.Fatalf("evaluated Lookup = %v, %v", objs, ok)
	}
	if objs, ok := c.Lookup(skeleton.Config{-1}); !ok || objs != nil {
		t.Fatalf("failure Lookup = %v, %v", objs, ok)
	}
	if calls.Load() != before {
		t.Fatal("Lookup triggered an evaluation")
	}
}
