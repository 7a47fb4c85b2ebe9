package objective

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/israce"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/skeleton"
)

// followed reports whether cfg is in flight with a follower waiting for
// it: whether its rendezvous exists.
func followed(c *CachingEvaluator, cfg skeleton.Config) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _ := c.table.lookup(cfg)
	if e < 0 || c.table.at(e).state != inFlight {
		return false
	}
	_, ok := c.followed[e]
	return ok
}

// entriesInFlight counts the table entries in flight; it panics if the count
// the evaluator keeps, or its rendezvous, disagree with them.
func entriesInFlight(c *CachingEvaluator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := int32(0); int(e) < c.table.n; e++ {
		if c.table.at(e).state == inFlight {
			n++
		} else if _, ok := c.followed[e]; ok {
			panic(fmt.Sprintf("entry %d is not in flight but has a rendezvous", e))
		}
	}
	if n != c.inflight {
		panic(fmt.Sprintf("%d entries in flight, the evaluator counts %d", n, c.inflight))
	}
	return n
}

// seqBatch returns the single-parameter configurations lo, lo+1, …, hi-1.
func seqBatch(lo, hi int) []skeleton.Config {
	batch := make([]skeleton.Config, 0, hi-lo)
	for i := lo; i < hi; i++ {
		batch = append(batch, skeleton.Config{int64(i)})
	}
	return batch
}

// A cancelled search never starts another evaluation: with the context
// cancelled from inside the k-th evaluation, exactly k evaluations run
// and E == k, every time — on the workers and inline.
func TestCancelledSearchStartsNoFurtherEvaluation(t *testing.T) {
	const k = 3
	for _, kind := range evaluatorKinds(1) {
		t.Run(kind.name, func(t *testing.T) {
			for rep := 0; rep < 200; rep++ {
				ctx, cancel := context.WithCancel(context.Background())
				var calls atomic.Int64
				c := kind.build([]string{"a"}, func(cfg skeleton.Config) []float64 {
					if calls.Add(1) == k {
						cancel()
					}
					return []float64{float64(cfg[0])}
				})
				c.SetContext(ctx)
				out := c.Evaluate(seqBatch(0, 10))
				if calls.Load() != k || c.Evaluations() != k {
					t.Fatalf("rep %d: %d evaluations ran, E = %d; want %d of each", rep, calls.Load(), c.Evaluations(), k)
				}
				answered := 0
				for _, objs := range out {
					if objs != nil {
						answered++
					}
				}
				if answered != k {
					t.Fatalf("rep %d: %d configurations answered, want %d", rep, answered, k)
				}
				// The withdrawn leaders stayed unknown, not cached as failures.
				c.SetContext(context.Background())
				c.Evaluate(seqBatch(0, 10))
				if c.Evaluations() != 10 {
					t.Fatalf("rep %d: E = %d after the resumed batch, want 10", rep, c.Evaluations())
				}
			}
		})
	}
}

// Two concurrent batches hold the same keys in opposite orders, so
// whichever classifies second follows the other's leaders, key by key
// in the opposite direction. Both must return (followers are resolved
// only after a batch's own leaders are done), every key is evaluated
// once, and both see the same results.
func TestOppositeOrderBatchesTerminate(t *testing.T) {
	for rep := 0; rep < 100; rep++ {
		var calls atomic.Int64
		c := NewCachingEvaluator([]string{"a"}, 2, func(cfg skeleton.Config) []float64 {
			calls.Add(1)
			runtime.Gosched()
			return []float64{float64(cfg[0])}
		})
		fwd := seqBatch(0, 12)
		// The first half overlaps in reverse; the second half is each
		// batch's own, so both batches lead and follow at once.
		a := append(append([]skeleton.Config{}, fwd[:6]...), seqBatch(100, 106)...)
		b := seqBatch(200, 206)
		for i := 5; i >= 0; i-- {
			b = append(b, fwd[i])
		}
		var outA, outB [][]float64
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); outA = c.Evaluate(a) }()
			go func() { defer wg.Done(); outB = c.Evaluate(b) }()
			wg.Wait()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("opposite-order batches did not terminate")
		}
		if calls.Load() != 18 || c.Evaluations() != 18 {
			t.Fatalf("rep %d: %d evaluations, E = %d; want 18 distinct keys once each", rep, calls.Load(), c.Evaluations())
		}
		for i := 0; i < 6; i++ {
			if outA[i] == nil || outB[11-i] == nil || outA[i][0] != outB[11-i][0] {
				t.Fatalf("rep %d: key %d: %v vs %v", rep, i, outA[i], outB[11-i])
			}
		}
	}
}

// The parallelism bound is global: 4 concurrent batches of 30 over
// parallelism 3 never have more than 3 evaluations in flight.
func TestConcurrentBatchesRespectGlobalBound(t *testing.T) {
	var inflight, peak, calls atomic.Int64
	c := NewCachingEvaluator([]string{"a"}, 3, func(cfg skeleton.Config) []float64 {
		calls.Add(1)
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		runtime.Gosched()
		inflight.Add(-1)
		return []float64{float64(cfg[0])}
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Neighbouring batches share 10 keys.
			for i, objs := range c.Evaluate(seqBatch(w*20, w*20+30)) {
				if objs == nil || objs[0] != float64(w*20+i) {
					t.Errorf("batch %d slot %d = %v", w, i, objs)
				}
			}
		}(w)
	}
	wg.Wait()
	if peak.Load() > 3 {
		t.Fatalf("%d evaluations in flight at once, bound is 3", peak.Load())
	}
	if calls.Load() != 90 || c.Evaluations() != 90 {
		t.Fatalf("%d evaluations, E = %d; want 90 distinct keys once each", calls.Load(), c.Evaluations())
	}
}

// Evaluations that block (timed kernels, watchdog-guarded calls) still
// overlap up to min(parallelism, misses) on a single P: the batch's
// workers are goroutines, not a loop on the caller.
func TestBlockingEvaluationsOverlapAtGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct{ parallelism, misses, want int }{{4, 6, 4}, {4, 2, 2}, {1, 3, 1}} {
		var arrived atomic.Int64
		release := make(chan struct{})
		full := make(chan struct{})
		c := NewCachingEvaluator([]string{"a"}, tc.parallelism, func(cfg skeleton.Config) []float64 {
			if arrived.Add(1) == int64(tc.want) {
				close(full)
			}
			<-release
			return []float64{float64(cfg[0])}
		})
		c.Prime(skeleton.Config{1000}, []float64{1}) // a hit takes no worker
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Evaluate(append(seqBatch(0, tc.misses), skeleton.Config{1000}))
		}()
		select {
		case <-full:
		case <-time.After(30 * time.Second):
			t.Fatalf("parallelism %d, %d misses: only %d evaluations in flight, want %d",
				tc.parallelism, tc.misses, arrived.Load(), tc.want)
		}
		if got := arrived.Load(); got != int64(tc.want) {
			t.Fatalf("parallelism %d, %d misses: %d in flight, want %d", tc.parallelism, tc.misses, got, tc.want)
		}
		close(release)
		<-done
		if c.Evaluations() != tc.misses {
			t.Fatalf("E = %d, want %d", c.Evaluations(), tc.misses)
		}
	}
}

// Duplicates inside one batch follow the batch's own leader and get its
// slice, not a copy and not a second evaluation.
func TestDuplicatesInBatchShareLeaderSlice(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 4, countingFn(&calls))
	out := c.Evaluate([]skeleton.Config{{5}, {6}, {5}, {-1}, {5}, {-1}})
	if calls.Load() != 3 || c.Evaluations() != 2 {
		t.Fatalf("%d evaluations, E = %d; want 3 and 2", calls.Load(), c.Evaluations())
	}
	if out[0] == nil || &out[0][0] != &out[2][0] || &out[0][0] != &out[4][0] {
		t.Fatalf("duplicates did not get the leader's slice: %v %v %v", out[0], out[2], out[4])
	}
	if out[3] != nil || out[5] != nil {
		t.Fatalf("duplicate failures = %v, %v; want nil", out[3], out[5])
	}
}

// Prime during a running batch: a key the batch holds in flight is
// refused (and evaluated once, by the batch); any other key is inserted
// and never evaluated afterwards.
func TestPrimeDuringBatch(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	c := NewCachingEvaluator([]string{"a"}, 1, func(cfg skeleton.Config) []float64 {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return []float64{float64(cfg[0])}
	})
	done := make(chan [][]float64)
	go func() { done <- c.Evaluate(seqBatch(0, 2)) }()
	<-entered
	if c.Prime(skeleton.Config{1}, []float64{-1}) {
		t.Error("Prime replaced a key the running batch holds in flight")
	}
	if !c.Prime(skeleton.Config{2}, []float64{-2}) {
		t.Error("Prime refused a key nobody holds")
	}
	close(release)
	if out := <-done; out[1] == nil || out[1][0] != 1 {
		t.Fatalf("in-flight key came back %v, want its evaluated value", out[1])
	}
	if out := c.Evaluate(seqBatch(0, 3)); out[2][0] != -2 {
		t.Fatalf("primed key came back %v, want the primed value", out[2])
	}
	if calls.Load() != 2 || c.Evaluations() != 2 {
		t.Fatalf("%d evaluations, E = %d; want 2 of each", calls.Load(), c.Evaluations())
	}
}

// A follower of an aborted leader gets nil and the key stays unknown.
func TestFollowerOfAbortedLeader(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var abort atomic.Bool
	abort.Store(true)
	c := NewCachingEvaluator([]string{"a"}, 2, func(cfg skeleton.Config) []float64 { return []float64{float64(cfg[0])} })
	c.WrapEvalFunc(func(next CtxEvalFunc) CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			if abort.Load() {
				close(entered)
				<-release
				return nil, errors.New("aborted")
			}
			return next(ctx, cfg, dst)
		}
	})
	leader, follower := make(chan [][]float64), make(chan [][]float64)
	go func() { leader <- c.Evaluate(seqBatch(7, 8)) }()
	<-entered
	go func() { follower <- c.Evaluate(seqBatch(7, 8)) }()
	// The follower has registered once the key's rendezvous exists.
	for !followed(c, skeleton.Config{7}) {
		runtime.Gosched()
	}
	close(release)
	if out := <-leader; out[0] != nil {
		t.Fatalf("aborted leader returned %v", out[0])
	}
	if out := <-follower; out[0] != nil {
		t.Fatalf("follower of an aborted leader returned %v", out[0])
	}
	if _, ok := c.Lookup(skeleton.Config{7}); ok || c.Evaluations() != 0 {
		t.Fatal("aborted evaluation was cached or counted")
	}
	abort.Store(false)
	if out := c.EvaluateOne(skeleton.Config{7}); out == nil || c.Evaluations() != 1 {
		t.Fatalf("re-evaluation after abort = %v, E = %d", out, c.Evaluations())
	}
}

// An evaluation that panics into a recovering caller holds neither its
// semaphore slot nor its in-flight key afterwards: the follower is
// released with nil and the key can be evaluated again. The leaders
// after it in its batch are released too, and what completed before it
// is kept.
func TestPanickingEvaluationReleasesSlotAndKey(t *testing.T) {
	for _, kind := range evaluatorKinds(1) {
		t.Run(kind.name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var calls atomic.Int64
			c := kind.build([]string{"a"}, func(cfg skeleton.Config) []float64 {
				if cfg[0] == 7 && calls.Add(1) == 1 {
					close(entered)
					<-release
					panic("evaluation blew up")
				}
				return []float64{float64(cfg[0])}
			})
			leader, follower := make(chan any), make(chan [][]float64)
			go func() {
				defer func() { leader <- recover() }()
				// The panicking evaluation leads the second slot: 6 has
				// completed before it, 8 has not started.
				c.Evaluate(seqBatch(6, 9))
			}()
			<-entered
			go func() { follower <- c.Evaluate(seqBatch(7, 8)) }()
			for !followed(c, skeleton.Config{7}) {
				runtime.Gosched()
			}
			close(release)
			if r := <-leader; r == nil {
				t.Fatal("the panic did not reach the caller")
			}
			if out := <-follower; out[0] != nil {
				t.Fatalf("follower of a panicked leader returned %v", out[0])
			}
			if left := entriesInFlight(c); left != 0 {
				t.Fatalf("%d keys still in flight after the panic", left)
			}
			// Parallelism is 1 on the workers: this returns only if the
			// slot was given back.
			if out := c.EvaluateOne(skeleton.Config{7}); out == nil || c.Evaluations() != 2 {
				t.Fatalf("re-evaluation after the panic = %v, E = %d; want E = 2", out, c.Evaluations())
			}
		})
	}
}

func benchSim(tb testing.TB) *Sim {
	tb.Helper()
	k, err := kernels.ByName("mm")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSim(SimConfig{Machine: machine.Westmere(), Kernel: k, NoiseAmp: 0.01})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// freshBatch returns 30 valid mm configurations no earlier call with a
// smaller n returned.
func freshBatch(n int) []skeleton.Config {
	batch := make([]skeleton.Config, 30)
	for i := range batch {
		batch[i] = skeleton.Config{int64(n%500 + 1), int64(n/500 + 1), int64(i + 1), int64(i%40 + 1)}
	}
	return batch
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates on average over runs calls, after one warm-up call, at
// GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSimEvaluateAllocationBudget: a batch of fresh configurations costs
// the evaluator three allocations — the result slice, the leader list
// and the slab its objective vectors are cut from. It renders no key,
// no observer being registered, and a Sim evaluates in the calling
// goroutine, so there is no worker, worker index, wait group or closure
// to pay for. Per configuration there is only the table's amortized
// growth: an entry chunk every 128 configurations, a value chunk every
// 256 four-value ones and the slot index's doublings, about 0.02 a
// configuration, held under 0.05. In bytes that is
// 3.7 KiB a batch of 30 (the string-keyed cache took 7.0 KiB), held
// under 5 KiB. A batch answered from the cache alone costs the result
// slice.
func TestSimEvaluateAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	batches := make([][]skeleton.Config, 102)
	for i := range batches {
		batches[i] = freshBatch(i)
	}
	s, n := benchSim(t), 0
	evaluate := func() {
		s.Evaluate(batches[n])
		n++
	}
	if perBatch, budget := testing.AllocsPerRun(50, evaluate), 0.05*30+3; perBatch > budget {
		t.Errorf("Sim.Evaluate of 30 fresh configurations allocates %v times, budget %v", perBatch, budget)
	}
	if perBatch := bytesPerRun(50, evaluate); perBatch > 5<<10 {
		t.Errorf("Sim.Evaluate of 30 fresh configurations allocates %.0f bytes, budget %d", perBatch, 5<<10)
	}
	if s.Evaluations() != 102*30 {
		t.Fatalf("E = %d, want %d: the batches were not fresh", s.Evaluations(), 102*30)
	}
	hits := batches[0]
	if perHitBatch := testing.AllocsPerRun(50, func() { s.Evaluate(hits) }); perHitBatch > 1 {
		t.Errorf("Sim.Evaluate of 30 cached configurations allocates %v times, budget 1", perHitBatch)
	}
	if s.Evaluations() != 102*30 {
		t.Fatalf("E = %d after the cached batches, want %d", s.Evaluations(), 102*30)
	}
}

// stubKernel is a one-tile kernel for the measured evaluator whose runner
// does nothing, so allocates nothing.
func stubKernel() *kernels.Kernel {
	return &kernels.Kernel{Name: "stub", TileDims: 1, BenchN: 1,
		Run: func(int64, []int64, int) (float64, error) { return 0, nil }}
}

// TestMeasuredEvaluateAllocationBudget: timing a fresh configuration
// allocates nothing of the evaluator's own — the tile sizes are read
// from the configuration, the repetition times sit on the stack and the
// vector is the batch's cut — so, over a runner that allocates nothing,
// a batch costs what Sim's does plus the worker index, the wait group
// and the drain closure of the workers, six allocations; the closure
// that starts them is never made at parallelism 1. In bytes that is 3.4
// KiB a batch of 30 two-value configurations (the string-keyed cache
// took 7.0 KiB), held under 5 KiB.
func TestMeasuredEvaluateAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m, err := NewMeasured(stubKernel(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([][]skeleton.Config, 102)
	for n := range batches {
		batches[n] = make([]skeleton.Config, 30)
		for i := range batches[n] {
			batches[n][i] = skeleton.Config{int64(n*30 + i + 1), 2}
		}
	}
	n := 0
	evaluate := func() {
		m.Evaluate(batches[n])
		n++
	}
	if perBatch, budget := testing.AllocsPerRun(50, evaluate), 0.05*30+6; perBatch > budget {
		t.Errorf("Measured.Evaluate of 30 fresh configurations allocates %v times, budget %v", perBatch, budget)
	}
	if perBatch := bytesPerRun(50, evaluate); perBatch > 5<<10 {
		t.Errorf("Measured.Evaluate of 30 fresh configurations allocates %.0f bytes, budget %d", perBatch, 5<<10)
	}
	if m.Evaluations() != 102*30 {
		t.Fatalf("E = %d, want %d: the batches were not fresh", m.Evaluations(), 102*30)
	}
}

// Every fresh vector of a batch is its own cut of the batch's slab,
// capped at its length, so appending to one, as a caller may, never
// writes a neighbour's values — inline, as a Sim fills its cuts, and
// also when eight workers fill neighbouring cuts at once (CI runs this
// under the race detector).
func TestEvaluateVectorsAreCapped(t *testing.T) {
	s := benchSim(t)
	for _, c := range []*CachingEvaluator{s.CachingEvaluator, newCachingEvaluator(s.ObjectiveNames(), 8, s.evaluate)} {
		out := c.Evaluate(freshBatch(7))
		want := make([][]float64, len(out))
		for i, objs := range out {
			if objs == nil || cap(objs) != len(objs) {
				t.Fatalf("inline %v: vector %d = %v: cap %d, want its length", c.sem == nil, i, objs, cap(objs))
			}
			want[i] = append([]float64(nil), objs...)
		}
		for i := range out {
			_ = append(out[i], -1, -2)
			for j, objs := range out {
				if !reflect.DeepEqual(objs, want[j]) {
					t.Fatalf("inline %v: appending to vector %d changed vector %d: %v, want %v", c.sem == nil, i, j, objs, want[j])
				}
			}
		}
	}
}

func BenchmarkSimEvaluateBatchCold(b *testing.B) {
	b.ReportAllocs()
	var s *Sim
	for i := 0; i < b.N; i++ {
		if i%32 == 0 { // a search evaluates about a thousand configurations
			s = benchSim(b)
		}
		s.Evaluate(freshBatch(i % 32))
	}
}

func BenchmarkSimEvaluateBatchCached(b *testing.B) {
	s, batch := benchSim(b), freshBatch(0)
	s.Evaluate(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Evaluate(batch)
	}
}

// BenchmarkMeasuredEvaluateBatchCold prices the measured evaluator's own
// work around a run — over a runner that does nothing — for 30 fresh
// configurations.
func BenchmarkMeasuredEvaluateBatchCold(b *testing.B) {
	b.ReportAllocs()
	var m *Measured
	batch := make([]skeleton.Config, 30)
	for i := 0; i < b.N; i++ {
		if i%32 == 0 {
			m, _ = NewMeasured(stubKernel(), 0, 0)
		}
		for j := range batch {
			batch[j] = skeleton.Config{int64(i%32*30 + j + 1), 2}
		}
		m.Evaluate(batch)
	}
}

// Concurrent callers (islands) over one evaluator, each batch sharing
// half its keys with the next caller's.
func BenchmarkCachingEvaluatorConcurrentBatches(b *testing.B) {
	c := NewCachingEvaluator([]string{"a", "b"}, 8, func(cfg skeleton.Config) []float64 {
		return []float64{float64(cfg[0]), float64(cfg[0]) * 2}
	})
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			lo := int(next.Add(1)) * 15
			c.Evaluate(seqBatch(lo, lo+30))
		}
	})
}
