package objective

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"autotune/internal/skeleton"
	"autotune/internal/testenv"
)

// referencePrime is the per-record Prime that PrimeBatch replaced, over
// the map-based evaluator: one lock, one copy of the objectives and one
// observer snapshot a record.
func referencePrime(c *mapEvaluator, cfg skeleton.Config, objs []float64) bool {
	key := cfg.Key()
	c.mu.Lock()
	if _, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return false
	}
	if _, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		return false
	}
	c.cache[key] = append([]float64(nil), objs...)
	observers := c.primeObserverList()
	c.mu.Unlock()
	for _, observe := range observers {
		observe(cfg, objs)
	}
	return true
}

// primeFixture is an evaluator with {100} evaluated, {101} primed and
// {102} held in flight by a running batch, two prime observers and the
// log of what they were handed.
type primeFixture struct {
	c        cacheAPI
	contents func() map[string][]float64
	log      []string
	release  chan struct{}
	done     chan struct{}
}

// newPrimeFixture builds the fixture over a CachingEvaluator or, with
// reference set, over the map-based evaluator.
func newPrimeFixture(reference bool) *primeFixture {
	var calls atomic.Int64
	f := &primeFixture{release: make(chan struct{}), done: make(chan struct{})}
	entered := make(chan struct{})
	fn := func(_ context.Context, cfg skeleton.Config, _ []float64) ([]float64, error) {
		if calls.Add(1) == 2 {
			close(entered)
			<-f.release
		}
		return []float64{float64(cfg[0]), 1}, nil
	}
	if reference {
		m := newMapEvaluator([]string{"a", "b"}, 1, false, fn)
		f.c, f.contents = m, func() map[string][]float64 { return m.cache }
	} else {
		c := newCachingEvaluator([]string{"a", "b"}, 1, fn)
		f.c, f.contents = c, func() map[string][]float64 { return cacheContents(c) }
	}
	f.c.EvaluateOne(skeleton.Config{100})
	f.c.Prime(skeleton.Config{101}, []float64{-101, 1})
	for _, name := range []string{"first", "second"} {
		f.c.AddPrimeObserver(func(cfg skeleton.Config, objs []float64) {
			f.log = append(f.log, fmt.Sprintf("%s %s %v %v", name, cfg.Key(), objs, objs == nil))
		})
	}
	go func() {
		f.c.EvaluateOne(skeleton.Config{102})
		close(f.done)
	}()
	<-entered
	return f
}

// finish lets the running batch end and returns every completed result
// the cache holds outside a primed layer, by key.
func (f *primeFixture) finish() map[string][]float64 {
	close(f.release)
	<-f.done
	return f.contents()
}

// TestPrimeBatchMatchesPrime: one PrimeBatch leaves the cache N Prime
// calls left, returns the count of their true results and hands the
// prime observers the same records in the same order — over a batch
// with keys already evaluated, already primed, held in flight by a
// running batch and repeated inside the batch itself, with known
// failures and an empty objective vector among the rest. Prime is
// PrimeBatch of one.
func TestPrimeBatchMatchesPrime(t *testing.T) {
	var cfgs []skeleton.Config
	var objs [][]float64
	for i := int64(0); i < 40; i++ {
		cfgs = append(cfgs, skeleton.Config{i % 32, 7}) // the last eight repeat the first
		switch {
		case i%5 == 4:
			objs = append(objs, nil)
		case i == 11:
			objs = append(objs, []float64{})
		default:
			objs = append(objs, []float64{float64(i), float64(i) / 8})
		}
	}
	for _, known := range []int64{100, 101, 102} { // evaluated, primed, in flight
		cfgs = append(cfgs, skeleton.Config{known})
		objs = append(objs, []float64{0, 0})
	}

	ref := newPrimeFixture(true)
	want := 0
	for i, cfg := range cfgs {
		if referencePrime(ref.c.(*mapEvaluator), cfg, objs[i]) {
			want++
		}
	}
	batch := newPrimeFixture(false)
	got := batch.c.PrimeBatch(cfgs, keysOf(cfgs), objs)
	single := newPrimeFixture(false)
	singles := 0
	for i, cfg := range cfgs {
		if single.c.Prime(cfg, objs[i]) {
			singles++
		}
	}

	if got != want || singles != want || want != 32 {
		t.Fatalf("PrimeBatch inserted %d, Prime one by one %d, the reference %d; want 32", got, singles, want)
	}
	if !reflect.DeepEqual(batch.log, ref.log) || !reflect.DeepEqual(single.log, ref.log) {
		t.Fatalf("prime observers saw\n%v\none by one\n%v\nthe reference\n%v", batch.log, single.log, ref.log)
	}
	if len(ref.log) != 2*want {
		t.Fatalf("%d observer calls for %d insertions and two observers", len(ref.log), want)
	}
	wantCache := ref.finish()
	if gotCache := batch.finish(); !reflect.DeepEqual(gotCache, wantCache) {
		t.Fatalf("PrimeBatch left the cache\n%v\nthe reference\n%v", gotCache, wantCache)
	}
	if gotCache := single.finish(); !reflect.DeepEqual(gotCache, wantCache) {
		t.Fatalf("Prime one by one left the cache\n%v\nthe reference\n%v", gotCache, wantCache)
	}
	if v, ok := wantCache[skeleton.Config{102}.Key()]; !ok || v[0] != 102 {
		t.Fatalf("the in-flight key ended as %v, want its evaluated value", v)
	}
}

// TestPrimeBatchLeavesInFlightKeysUnknown: a warm start's batch primed
// while an evaluation of one of its keys is in flight leaves that key
// to the evaluation — and so unknown once the evaluation is withdrawn,
// as a batch copied into the map does — and primes the rest.
func TestPrimeBatchLeavesInFlightKeysUnknown(t *testing.T) {
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	c := newCachingEvaluator([]string{"a"}, 1, func(context.Context, skeleton.Config, []float64) ([]float64, error) {
		close(entered)
		<-release
		return nil, context.Canceled // aborted: withdrawn, left unknown
	})
	go func() {
		c.EvaluateOne(skeleton.Config{2})
		close(done)
	}()
	<-entered
	cfgs := []skeleton.Config{{1}, {2}, {3}}
	if n := c.PrimeBatch(cfgs, keysOf(cfgs), [][]float64{{1}, {2}, {3}}); n != 2 {
		t.Fatalf("PrimeBatch inserted %d, want 2 beside the key in flight", n)
	}
	close(release)
	<-done
	for i, cfg := range cfgs {
		objs, ok := c.Lookup(cfg)
		if ok != (i != 1) || ok && objs[0] != float64(cfg[0]) {
			t.Errorf("Lookup(%v) = %v, %v after the evaluation in flight was withdrawn", cfg, objs, ok)
		}
	}
}

// cacheContents returns every completed result c holds outside its
// primed layer, by key.
func cacheContents(c *CachingEvaluator) map[string][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	contents := map[string][]float64{}
	for e := int32(0); int(e) < c.table.n; e++ {
		if ent := c.table.at(e); ent.state == done {
			contents[skeleton.Config(c.table.values(ent)).Key()] = ent.objs
		}
	}
	return contents
}

// keysOf renders the Config.Key of every configuration.
func keysOf(cfgs []skeleton.Config) []string {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = cfg.Key()
	}
	return keys
}

// TestPrimeAllocationBudget: a resumed search primes its journal one
// Prime a record. With no prime observer registered and no primed layer
// attached, Prime renders no key and builds no slice, so 1,000 records
// cost the evaluator's construction and the table's amortized growth —
// an entry chunk every 128 records, a value chunk every 256 and the slot
// index's doublings — measured at 33 allocations and 87 KiB; the
// string-keyed cache paid three allocations a record.
func TestPrimeAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfgs, objs := primeRecords(1000)
	prime := func() {
		c := NewCachingEvaluator([]string{"a", "b"}, 1, func(skeleton.Config) []float64 { return nil })
		for i, cfg := range cfgs {
			if !c.Prime(cfg, objs[i]) {
				t.Fatalf("Prime(%v) refused a fresh record", cfg)
			}
		}
	}
	if per, budget := testing.AllocsPerRun(5, prime), 0.05*1000; per > budget {
		t.Errorf("priming 1,000 records allocates %v times, budget %v", per, budget)
	}
	if per, budget := bytesPerRun(5, prime), 128*1000.0; per > budget {
		t.Errorf("priming 1,000 records allocates %.0f bytes, budget %.0f", per, budget)
	}
}

// TestPrimedLayerHitsRenderNoString: a batch answered from a primed
// layer renders each configuration's key into a stack buffer for the
// binary search, so it costs the result slice alone, as a batch of
// table hits does.
func TestPrimedLayerHitsRenderNoString(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfgs, objs := primeRecords(3500)
	slices.SortFunc(cfgs, func(a, b skeleton.Config) int { return strings.Compare(a.Key(), b.Key()) })
	c := NewCachingEvaluator([]string{"a", "b"}, 1, func(skeleton.Config) []float64 {
		t.Fatal("a primed configuration was evaluated")
		return nil
	})
	if n := c.PrimeBatch(cfgs, keysOf(cfgs), objs); n != len(cfgs) || len(c.primedKeys) != len(cfgs) {
		t.Fatalf("PrimeBatch primed %d of %d records, the layer holds %d", n, len(cfgs), len(c.primedKeys))
	}
	batch := cfgs[1000:1030]
	if per := testing.AllocsPerRun(50, func() { c.Evaluate(batch) }); per > 1 {
		t.Errorf("a batch of 30 primed configurations allocates %v times, budget 1", per)
	}
}

// primeRecords is a warm start's worth of decoded records.
func primeRecords(n int) ([]skeleton.Config, [][]float64) {
	cfgs := make([]skeleton.Config, n)
	objs := make([][]float64, n)
	for i := range cfgs {
		cfgs[i] = skeleton.Config{int64(i % 64), int64(i / 64), 64, 8}
		objs[i] = []float64{float64(i) * 0.001, 8}
	}
	return cfgs, objs
}

// BenchmarkPrimeBatch primes a fresh cache with 3,500 records at once.
func BenchmarkPrimeBatch(b *testing.B) {
	cfgs, objs := primeRecords(3500)
	keys := keysOf(cfgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCachingEvaluator([]string{"a", "b"}, 1, func(skeleton.Config) []float64 { return nil })
		if n := c.PrimeBatch(cfgs, keys, objs); n != len(cfgs) {
			b.Fatalf("primed %d", n)
		}
	}
}

// BenchmarkPrimeBatchReference primes the same records into the
// map-based evaluator one lock, one copy and one map growth at a time.
func BenchmarkPrimeBatchReference(b *testing.B) {
	cfgs, objs := primeRecords(3500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newMapEvaluator([]string{"a", "b"}, 1, false, func(context.Context, skeleton.Config, []float64) ([]float64, error) { return nil, nil })
		for n, cfg := range cfgs {
			referencePrime(c, cfg, objs[n])
		}
	}
}
