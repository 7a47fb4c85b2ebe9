package objective

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"autotune/internal/skeleton"
)

// referencePrime is the per-record Prime that PrimeBatch replaced: one
// lock, one copy of the objectives and one observer snapshot a record.
func referencePrime(c *CachingEvaluator, cfg skeleton.Config, objs []float64) bool {
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
	c       *CachingEvaluator
	log     []string
	release chan struct{}
	done    chan struct{}
}

func newPrimeFixture() *primeFixture {
	var calls atomic.Int64
	f := &primeFixture{release: make(chan struct{}), done: make(chan struct{})}
	entered := make(chan struct{})
	f.c = NewCachingEvaluator([]string{"a", "b"}, 1, func(cfg skeleton.Config) []float64 {
		if calls.Add(1) == 2 {
			close(entered)
			<-f.release
		}
		return []float64{float64(cfg[0]), 1}
	})
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

func (f *primeFixture) finish() map[string][]float64 {
	close(f.release)
	<-f.done
	return f.c.cache
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

	ref := newPrimeFixture()
	want := 0
	for i, cfg := range cfgs {
		if referencePrime(ref.c, cfg, objs[i]) {
			want++
		}
	}
	batch := newPrimeFixture()
	got := batch.c.PrimeBatch(cfgs, keysOf(cfgs), objs)
	single := newPrimeFixture()
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

// keysOf renders the Config.Key of every configuration.
func keysOf(cfgs []skeleton.Config) []string {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = cfg.Key()
	}
	return keys
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

// BenchmarkPrimeBatchReference primes the same records one lock, one
// copy and one map growth at a time.
func BenchmarkPrimeBatchReference(b *testing.B) {
	cfgs, objs := primeRecords(3500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCachingEvaluator([]string{"a", "b"}, 1, func(skeleton.Config) []float64 { return nil })
		for n, cfg := range cfgs {
			referencePrime(c, cfg, objs[n])
		}
	}
}
