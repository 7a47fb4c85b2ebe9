package objective

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"autotune/internal/skeleton"
)

// referenceEvaluate is mapEvaluator.Evaluate before a batch's keys were
// cut from one string, its leaders registered from one slab and its
// fresh vectors cut from another: a key rendered, an in-flight entry
// allocated and, the evaluation function being handed a nil dst, a
// vector allocated per configuration, on the workers. The observers are
// handed the keys it rendered.
func referenceEvaluate(c *mapEvaluator, cfgs []skeleton.Config) [][]float64 {
	out := make([][]float64, len(cfgs))
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = cfg.Key()
	}

	var leaders []int
	var followers []mapFollower
	c.mu.Lock()
	fn, ctx := c.fn, c.ctx
	observed := len(c.observers) > 0
	if ctx == nil {
		ctx = context.Background()
	}
	cancelled := ctx.Err() != nil
	for i, key := range keys {
		if cached, ok := c.cache[key]; ok {
			out[i] = cached
		} else if fl, ok := c.inflight[key]; ok {
			if fl.done == nil {
				fl.done = make(chan struct{})
			}
			followers = append(followers, mapFollower{i, fl})
		} else if !cancelled {
			c.inflight[key] = &mapInflight{}
			leaders = append(leaders, i)
		}
	}
	c.mu.Unlock()

	if len(leaders) > 0 {
		var next atomic.Int64
		drain := func() {
			for n := next.Add(1) - 1; n < int64(len(leaders)); n = next.Add(1) - 1 {
				i := leaders[n]
				objs, ok := c.lead(ctx, fn, cfgs[i], keys[i], nil)
				out[i] = objs
				if !ok {
					leaders[n] = -1
				}
			}
		}
		var wg sync.WaitGroup
		for w := min(cap(c.sem), len(leaders)); w > 1; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		drain()
		wg.Wait()
		if observed {
			c.report(cfgs, keys, out, leaders)
		}
	}

	for _, f := range followers {
		<-f.fl.done
		out[f.slot] = f.fl.objs
	}
	return out
}

// referencePrimeBatch is mapEvaluator.PrimeBatch before it read a warm
// start's batch in place: it renders the keys and copies every batch
// into the map, grown once, skipping keys cached or in flight and the
// later of two entries under one key, and hands the prime observers the
// inserted entries in batch order. An evaluator primed only through it
// holds every primed entry in its map, where referenceEvaluate reads
// them.
func referencePrimeBatch(c *mapEvaluator, cfgs []skeleton.Config, objs [][]float64) int {
	keys := keysOf(cfgs)
	c.mu.Lock()
	c.reserve(len(keys))
	observers := c.primeObserverList()
	var inserted []int
	for i, key := range keys {
		if _, ok := c.cache[key]; ok {
			continue
		}
		if _, ok := c.inflight[key]; ok {
			continue
		}
		if len(objs[i]) == 0 {
			c.cache[key] = nil
		} else {
			c.cache[key] = objs[i]
		}
		inserted = append(inserted, i)
	}
	c.mu.Unlock()
	for _, i := range inserted {
		for _, observe := range observers {
			observe(cfgs[i], objs[i])
		}
	}
	return len(inserted)
}

// cacheAPI is what the fuzzers drive, on CachingEvaluator and on the
// map-based reference alike.
type cacheAPI interface {
	Evaluate(cfgs []skeleton.Config) [][]float64
	EvaluateOne(cfg skeleton.Config) []float64
	PrimeBatch(cfgs []skeleton.Config, keys []string, objs [][]float64) int
	Prime(cfg skeleton.Config, objs []float64) bool
	Lookup(cfg skeleton.Config) ([]float64, bool)
	Evaluations() int
	SetContext(ctx context.Context)
	AddObserver(fn func(cfgs []skeleton.Config, keys []string, objs [][]float64)) (remove func())
	AddPrimeObserver(fn func(cfg skeleton.Config, objs []float64)) (remove func())
}

// fuzzSide is one of the evaluators FuzzEvaluateMatchesReference
// drives in step: its cache, the context its evaluation function may
// cancel, and the log of everything its observers were handed.
type fuzzSide struct {
	c      cacheAPI
	cancel context.CancelFunc
	// trigger is the first component whose evaluation cancels the
	// context; 0 never does (the pool's first components are -2..5 and
	// 0 is not made a trigger).
	trigger int64
	log     []string
}

// newFuzzSide builds a CachingEvaluator side whose batches run inline,
// as a Sim's do, or on the workers at parallelism 1.
func newFuzzSide(t *testing.T, inline bool) *fuzzSide {
	return newSideOf(t, func(names []string, fn CtxEvalFunc) cacheAPI {
		if inline {
			return newInlineEvaluator(names, fn)
		}
		return newCachingEvaluator(names, 1, fn)
	})
}

// newMapSide builds a map-based reference side, inline or on the
// workers at parallelism 1.
func newMapSide(t *testing.T, inline bool) *fuzzSide {
	return newSideOf(t, func(names []string, fn CtxEvalFunc) cacheAPI { return newMapEvaluator(names, 1, inline, fn) })
}

func newSideOf(t *testing.T, build func(names []string, fn CtxEvalFunc) cacheAPI) *fuzzSide {
	s := &fuzzSide{}
	s.c = build([]string{"a", "b"}, func(_ context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
		if s.trigger != 0 && cfg[0] == s.trigger {
			s.cancel()
		}
		if cfg[0] < 0 {
			return nil, nil // a failed evaluation
		}
		dst = append(dst, float64(cfg[0]), float64(cfg[1])/4)
		if cfg[1] == 3 {
			// One value more than the cut holds: the append must
			// reallocate, not run into the neighbouring cut.
			dst = append(dst, -1)
		}
		return dst, nil
	})
	s.c.AddObserver(func(cfgs []skeleton.Config, keys []string, objs [][]float64) {
		if i, j, ok := overlapping(objs); ok {
			t.Errorf("fresh vectors %v of %v and %v of %v share memory", objs[i], cfgs[i], objs[j], cfgs[j])
		}
		for i, cfg := range cfgs {
			if keys[i] != cfg.Key() {
				t.Errorf("observer handed key %q for %v", keys[i], cfg)
			}
			s.log = append(s.log, fmt.Sprintf("eval %v %q %#v", []int64(cfg), keys[i], objs[i]))
		}
		s.log = append(s.log, "end of batch")
	})
	s.c.AddPrimeObserver(func(cfg skeleton.Config, objs []float64) {
		s.log = append(s.log, fmt.Sprintf("prime %v %#v", []int64(cfg), objs))
	})
	return s
}

// overlapping reports two vectors of vecs whose backing arrays, up to
// their capacity, share memory.
func overlapping(vecs [][]float64) (i, j int, ok bool) {
	span := func(v []float64) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(unsafe.SliceData(v)))
		return lo, lo + uintptr(cap(v))*unsafe.Sizeof(float64(0))
	}
	for i := range vecs {
		for j := i + 1; j < len(vecs); j++ {
			if cap(vecs[i]) == 0 || cap(vecs[j]) == 0 {
				continue
			}
			ilo, ihi := span(vecs[i])
			jlo, jhi := span(vecs[j])
			if ilo < jhi && jlo < ihi {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// fuzzCfg draws from a pool of 32 configurations: first components -2
// to 5 (the negative ones fail), so batches repeat configurations often.
func fuzzCfg(b byte) skeleton.Config {
	return skeleton.Config{int64(b&7) - 2, int64(b >> 3 & 3)}
}

// FuzzEvaluateMatchesReference: an op sequence — batches with
// duplicates inside them, failed configurations, evaluations appending
// more values than their cut holds, batches run under a cancelled
// context or cancelling it from inside an evaluation, primed batches
// with known failures and empty vectors among them, some of them warm
// starts: strictly increasing keys, as tunedb.Warm hands a history over
// — applied to a CachingEvaluator through Evaluate and PrimeBatch, to
// the map-based evaluator it replaced (mapEvaluator) through the same
// methods, and to a map-based evaluator through the references, leaves
// the same outputs, the same E, the same cache as Lookup reads it and
// the same observer streams on all three: the configurations, their
// keys and their results, in order. No two fresh vectors of one batch
// share memory. The first two run their batches on the workers, and
// then inline, as a Sim's run; the references run on the workers.
func FuzzEvaluateMatchesReference(f *testing.F) {
	f.Add([]byte{0x03, 1, 2, 1, 0x40, 9, 2, 0x05, 0x13, 0x0a, 4, 0x21, 3})
	f.Add([]byte{0x02, 0, 1, 0x06, 0x0b, 2, 7, 0x11, 0x0c, 0x02, 5, 5})
	f.Add([]byte{0xa5, 7, 6, 5, 4, 3, 2, 1, 0x57, 9, 9, 1, 0x34, 0, 8, 16, 24})
	// A warm start, a second one and a primed batch beside them, then
	// batches over what they primed.
	f.Add([]byte{0x3e, 1, 9, 2, 17, 8, 3, 25, 1, 0x2a, 4, 5, 1, 0x0a, 7, 6, 9, 0x1c, 1, 2, 9, 17, 25, 6, 4, 5, 0x1d, 3, 8, 7, 11, 12, 13, 14, 15, 0x03, 9, 0x03, 17})
	f.Add([]byte{0x01, 1, 0x3a, 1, 2, 3, 4, 10, 11, 12, 0x03, 3, 0x1c, 1, 2, 3, 4, 10, 11, 12, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		for _, inline := range []bool{false, true} {
			matchReference(t, data, inline, newFuzzSide(t, inline))
			matchReference(t, data, inline, newMapSide(t, inline))
		}
	})
}

// matchReference applies the op sequence data encodes to got and to
// the references, and compares them.
func matchReference(t *testing.T, data []byte, inline bool, got *fuzzSide) {
	want := newMapSide(t, false)
	ref := want.c.(*mapEvaluator)
	ops := &byteStream{data: data}
	for n := 0; ops.more() && n < 64; n++ {
		op := ops.next()
		size := int(op>>2&7) + 1
		cfgs := make([]skeleton.Config, size)
		for i := range cfgs {
			cfgs[i] = fuzzCfg(ops.next())
		}
		switch op & 3 {
		case 0, 1:
			// A batch: with op bit 5 under a cancelled context, with
			// bit 6 cancelling it from inside its last evaluation.
			gotOut := evaluateUnder(got, op, cfgs, func() [][]float64 { return got.c.Evaluate(cfgs) })
			wantOut := evaluateUnder(want, op, cfgs, func() [][]float64 { return referenceEvaluate(ref, cfgs) })
			if !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("%T inline %v, op %d: Evaluate(%v) = %v, the reference %v", got.c, inline, n, cfgs, gotOut, wantOut)
			}
		case 2:
			// A primed batch, every third result a known failure and
			// every fifth an empty vector; with op bit 5 a warm start,
			// its configurations in key order without duplicates.
			if op&0x20 != 0 {
				slices.SortFunc(cfgs, func(a, b skeleton.Config) int { return strings.Compare(a.Key(), b.Key()) })
				cfgs = slices.CompactFunc(cfgs, func(a, b skeleton.Config) bool { return a.Key() == b.Key() })
			}
			objs := make([][]float64, len(cfgs))
			for i := range objs {
				switch {
				case i%5 == 4:
					objs[i] = []float64{}
				case i%3 != 2:
					objs[i] = []float64{-float64(i), float64(op)}
				}
			}
			if g, w := got.c.PrimeBatch(cfgs, keysOf(cfgs), objs), referencePrimeBatch(ref, cfgs, objs); g != w {
				t.Fatalf("%T inline %v, op %d: PrimeBatch(%v) = %d, the reference %d", got.c, inline, n, cfgs, g, w)
			}
		case 3: // one configuration at a time
			if g, w := got.c.EvaluateOne(cfgs[0]), referenceEvaluate(ref, cfgs[:1])[0]; !reflect.DeepEqual(g, w) {
				t.Fatalf("%T inline %v, op %d: EvaluateOne(%v) = %v, the reference %v", got.c, inline, n, cfgs[0], g, w)
			}
		}
		if g, w := got.c.Evaluations(), want.c.Evaluations(); g != w {
			t.Fatalf("%T inline %v, op %d: E = %d, the reference %d", got.c, inline, n, g, w)
		}
	}
	if !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("%T inline %v: the observers saw\n%v\nthe reference's\n%v", got.c, inline, got.log, want.log)
	}
	for b := 0; b < 32; b++ {
		cfg := fuzzCfg(byte(b))
		g, gok := got.c.Lookup(cfg)
		w, wok := want.c.Lookup(cfg)
		if gok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("%T inline %v: Lookup(%v) = %v %v, the reference %v %v", got.c, inline, cfg, g, gok, w, wok)
		}
	}
}

// evaluateUnder evaluates one batch on side s under the context op asks
// for and restores the default context afterwards.
func evaluateUnder(s *fuzzSide, op byte, cfgs []skeleton.Config, evaluate func() [][]float64) [][]float64 {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.cancel, s.trigger = cancel, 0
	if op&0x20 != 0 {
		cancel()
	}
	if op&0x40 != 0 {
		s.trigger = cfgs[len(cfgs)-1][0]
	}
	s.c.SetContext(ctx)
	defer s.c.SetContext(nil)
	return evaluate()
}

// byteStream reads an op sequence; past its end every byte is 0.
type byteStream struct {
	data []byte
	at   int
}

func (b *byteStream) more() bool { return b.at < len(b.data) }

func (b *byteStream) next() byte {
	if b.at >= len(b.data) {
		return 0
	}
	b.at++
	return b.data[b.at-1]
}
