package objective

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"autotune/internal/skeleton"
)

// EvalFunc computes the objective vector of a single configuration. A
// nil result marks a failed evaluation (invalid configuration); failed
// results are cached like successes but never counted in E.
type EvalFunc func(cfg skeleton.Config) []float64

// CtxEvalFunc is the context-aware evaluation function the shared
// cache runs internally, in append form: it appends the objective
// vector of cfg to dst and returns the result, as append does. The
// cache hands each fresh evaluation of a batch an empty dst whose
// capacity is the number of objectives, cut from one slab per batch, so
// an evaluation that appends that many values allocates nothing and one
// that appends more reallocates rather than reach a neighbour's cut; a
// nil dst is valid too. A nil objective vector with a nil error marks a
// failed (invalid or timed-out) configuration: it is cached, never
// counted in E, and reported to observers — a recorded failure. A
// non-nil error marks an aborted evaluation (the context was
// cancelled): the result is NOT cached, NOT counted and NOT observed,
// so a resumed search re-evaluates the configuration from scratch.
type CtxEvalFunc func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error)

// CachingEvaluator wraps a per-configuration evaluation function with
// the framework's shared evaluation infrastructure: a process-wide
// memoization cache keyed by Config.Key, in-flight deduplication,
// batch evaluation — bounded parallel for functions that can block —
// and the E metric (distinct successful evaluations).
//
// Evaluate handles a batch as a batch. One pass under one lock sorts
// its configurations into hits (answered from the cache), leaders (keys
// nobody is evaluating: this batch registers them in flight and
// evaluates them) and followers (keys in flight already — in a
// concurrent batch, or earlier in this one). An evaluator built around
// a function that can block (NewCachingEvaluator, Measured) drains the
// leaders with min(parallelism, leaders) workers pulling from a shared
// index, the calling goroutine being one of them, so a batch of one
// runs inline and an all-hit batch starts nothing. The simulated
// evaluator's function cannot block, and handing it to another
// goroutine costs more than it does: its batches evaluate their leaders
// one after another in the calling goroutine, take no semaphore slot
// and start no worker, and publish them under one more lock. Followers
// are resolved only after the batch's own leaders have finished: a
// batch never waits while holding work somebody else may be waiting
// for, so two batches following each other's leaders cannot deadlock.
//
// One CachingEvaluator can safely serve many concurrent Evaluate
// callers — e.g. the worker islands of the parallel optimizer — and
// guarantees each distinct configuration is evaluated exactly once no
// matter how many islands propose it. On the workers, every evaluation
// takes a slot of one semaphore, so the concurrency bound is global
// across batches: an inherently serial evaluation function
// (parallelism 1, like timed kernel execution) stays serialized even
// under concurrent batches. A simulated batch runs in its caller, so
// concurrent simulated batches evaluate as many at once as they have
// callers. Failed evaluations (nil objectives) are cached like
// successes but never counted in E; observers are handed the fresh
// results of a batch once, when its leaders have finished, outside the
// lock.
//
// The evaluator is cancellation-aware: SetContext binds a
// context.Context, and once it is done no further evaluation starts —
// the batch checks it before every evaluation, pending leaders are
// withdrawn and left unknown, and cache hits still return. Middleware
// installed with WrapEvalFunc — e.g. the evaluation watchdog of
// internal/resilience — decides per evaluation whether an interruption
// is a recorded failure (cached, observed) or an abort (left unknown).
//
// The cache is a map and one primed layer: a warm start's batch of
// results, its keys strictly increasing, which the cache reads in place
// by binary search instead of copying it into the map (see PrimeBatch).
// A key is looked up in the map, then among the evaluations in flight,
// then in the layer.
type CachingEvaluator struct {
	names []string
	// sem bounds the workers' evaluations. It is nil for an evaluator
	// whose function cannot block: its batches run inline.
	sem chan struct{}

	mu        sync.Mutex
	fn        CtxEvalFunc
	ctx       context.Context
	cache     map[string][]float64
	inflight  map[string]*inflightEval
	evals     int
	nextObs   int
	observers map[int]func(cfgs []skeleton.Config, keys []string, objs [][]float64)
	nextPrime int
	primeObs  map[int]func(cfg skeleton.Config, objs []float64)

	// The primed layer: primedObjs[i] is the result of primedKeys[i],
	// the keys strictly increasing. Both are the slices PrimeBatch was
	// handed, never written.
	primedKeys []string
	primedObjs [][]float64
}

// inflightEval is the rendezvous for a configuration whose evaluation
// is still running. The first follower creates done (under c.mu), so
// the usual case — nobody else asks for the key meanwhile — costs no
// channel; the leader publishes objs and closes done, if there is one,
// when it finishes. A batch registers its leaders from one slab of
// them, fresh for the batch.
type inflightEval struct {
	done chan struct{}
	objs []float64
}

// follower is a batch slot waiting for another leader's result.
type follower struct {
	slot int
	fl   *inflightEval
}

// NewCachingEvaluator builds a caching evaluator around fn, which may
// block. names are the objective labels reported by ObjectiveNames;
// parallelism bounds concurrent fn invocations globally, across batches
// (minimum 1). fn returns vectors of its own: the cache keeps them.
func NewCachingEvaluator(names []string, parallelism int, fn EvalFunc) *CachingEvaluator {
	return newCachingEvaluator(names, parallelism, func(_ context.Context, cfg skeleton.Config, _ []float64) ([]float64, error) {
		return fn(cfg), nil
	})
}

// newCachingEvaluator is NewCachingEvaluator around an evaluation
// function in append form, which writes fresh vectors into the batch's
// slab: the measured evaluator.
func newCachingEvaluator(names []string, parallelism int, fn CtxEvalFunc) *CachingEvaluator {
	c := newInlineEvaluator(names, fn)
	c.sem = make(chan struct{}, max(parallelism, 1))
	return c
}

// newInlineEvaluator is a caching evaluator around a function in append
// form that cannot block — the simulated evaluator — whose batches
// evaluate in the calling goroutine.
func newInlineEvaluator(names []string, fn CtxEvalFunc) *CachingEvaluator {
	return &CachingEvaluator{
		names:     append([]string(nil), names...),
		fn:        fn,
		cache:     map[string][]float64{},
		inflight:  map[string]*inflightEval{},
		observers: map[int]func([]skeleton.Config, []string, [][]float64){},
		primeObs:  map[int]func(skeleton.Config, []float64){},
	}
}

// ObjectiveNames implements Evaluator.
func (c *CachingEvaluator) ObjectiveNames() []string {
	return append([]string(nil), c.names...)
}

// Evaluations implements Evaluator: the number of distinct
// configurations successfully evaluated so far (the E metric). Cache
// hits do not count twice and failures do not count at all.
func (c *CachingEvaluator) Evaluations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evals
}

// SharedCache returns the evaluator's shared cache layer. Evaluators
// embedding a CachingEvaluator (Sim, Measured) inherit the method, so
// callers can reach the cache of any such evaluator through the
// SharedCacher interface without knowing the concrete type.
func (c *CachingEvaluator) SharedCache() *CachingEvaluator { return c }

// SharedCacher is implemented by every evaluator built on a
// CachingEvaluator.
type SharedCacher interface {
	SharedCache() *CachingEvaluator
}

// SetContext binds a context to subsequent evaluations: once it is
// done, new evaluations are abandoned (returning nil without caching)
// and in-flight ones are handed the done context so cancellation-aware
// evaluation functions can abort early. A nil ctx restores the default
// (never cancelled).
func (c *CachingEvaluator) SetContext(ctx context.Context) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
}

// WrapEvalFunc layers middleware around the evaluation function — the
// watchdog's timeouts, say. Install middleware
// before the search starts; evaluations already in flight keep the
// function they started with.
func (c *CachingEvaluator) WrapEvalFunc(mw func(CtxEvalFunc) CtxEvalFunc) {
	c.mu.Lock()
	c.fn = mw(c.fn)
	c.mu.Unlock()
}

// PrimeBatch inserts known results — objs[i] is the result of cfgs[i],
// whose Config.Key is keys[i] — into the memoization cache, without
// counting toward E and without invoking the evaluation function: the
// warm-start path of the persistent tuning database. A nil objs[i]
// records a known-failed configuration, so warm searches skip it too,
// and so does an empty one. Entries already cached or currently in
// flight are left untouched, as is the later of two entries of one
// batch under one key. It returns the number of entries inserted.
//
// A batch of more than one result whose keys are strictly increasing —
// a warm start's history, in store-key order — becomes the cache's
// primed layer, if it has none yet and nothing is in flight: the cache
// keeps keys and objs themselves, for its whole life, and reads them in
// place. Any other batch is copied into the map, grown once to its
// final size, which keeps the key strings and objective slices it is
// handed. Either way the caller must not modify what it handed over
// afterwards.
//
// Primed results are deliberately NOT reported to the evaluation
// observers (AddObserver): those see every completed fresh evaluation
// exactly once, and a primed entry was produced by an earlier run —
// re-reporting it would double-journal it in the tuning database and
// double-charge checkpoint traces. Consumers that want
// the warm-start data anyway (the surrogate model trains on every
// known result) register through AddPrimeObserver, which fires exactly
// once per *inserted* primed entry, in the order of the batch.
func (c *CachingEvaluator) PrimeBatch(cfgs []skeleton.Config, keys []string, objs [][]float64) int {
	c.mu.Lock()
	// A single result (Prime) is no history. With an evaluation in
	// flight the layer could answer for its key once the evaluation is
	// withdrawn, where a copied batch skips it.
	layer := len(keys) > 1 && len(c.primedKeys) == 0 && len(c.inflight) == 0 && increasing(keys)
	if !layer {
		c.reserve(len(keys))
	}
	observers := c.primeObserverList()
	var inserted []int
	primed := 0
	for i, key := range keys {
		if _, ok := c.cached(key); ok {
			continue
		}
		if _, ok := c.inflight[key]; ok {
			continue
		}
		if !layer {
			o := objs[i]
			if len(o) == 0 {
				o = nil // an empty vector is a failure like a nil one
			}
			c.cache[key] = o
		}
		primed++
		if observers != nil {
			inserted = append(inserted, i)
		}
	}
	if layer {
		c.primedKeys, c.primedObjs = keys, objs
	}
	c.mu.Unlock()
	for _, i := range inserted {
		for _, observe := range observers {
			observe(cfgs[i], objs[i])
		}
	}
	return primed
}

// increasing reports whether keys are strictly increasing.
func increasing(keys []string) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}

// cached returns the completed result of key, from the map or the
// primed layer. Callers hold c.mu.
func (c *CachingEvaluator) cached(key string) ([]float64, bool) {
	if objs, ok := c.cache[key]; ok {
		return objs, true
	}
	return c.primed(key)
}

// primed returns the result of key in the primed layer, nil for an
// empty vector as for a nil one. Callers hold c.mu.
func (c *CachingEvaluator) primed(key string) ([]float64, bool) {
	i, ok := slices.BinarySearch(c.primedKeys, key)
	if !ok || len(c.primedObjs[i]) == 0 {
		return nil, ok
	}
	return c.primedObjs[i], true
}

// Reserve grows the memoization cache, once, to hold n more entries
// than it does: a caller that knows how many configurations it is about
// to evaluate — a brute-force sweep — spares the cache the doublings on
// the way.
func (c *CachingEvaluator) Reserve(n int) {
	c.mu.Lock()
	c.reserve(n)
	c.mu.Unlock()
}

// reserve is Reserve under c.mu. It does nothing for fewer entries than
// the cache holds: growing entry by entry rehashes what is there at
// every doubling on the way, and moving it once costs less than that
// only when the cache is the smaller part.
func (c *CachingEvaluator) reserve(n int) {
	if len(c.cache) >= n {
		return
	}
	grown := make(map[string][]float64, len(c.cache)+n)
	for key, cached := range c.cache {
		grown[key] = cached
	}
	c.cache = grown
}

// Prime is PrimeBatch of one result, which is copied into the map; it
// reports whether the entry was inserted.
func (c *CachingEvaluator) Prime(cfg skeleton.Config, objs []float64) bool {
	return c.PrimeBatch([]skeleton.Config{cfg}, []string{cfg.Key()}, [][]float64{objs}) == 1
}

// Lookup peeks at the memoization cache: it returns the cached
// objective vector (nil for a cached failure) and whether the
// configuration has a completed result — primed or freshly evaluated.
// In-flight evaluations do not count as cached. Lookup never triggers
// an evaluation. No search path calls it: the tests of the layers around
// the cache (warm start, surrogate screen) read what a cache holds with
// it.
func (c *CachingEvaluator) Lookup(cfg skeleton.Config) (objs []float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cached(cfg.Key())
}

// AddPrimeObserver registers fn to be called exactly once per primed
// entry actually inserted by PrimeBatch (duplicates of cached or in-flight
// keys are not reported; known failures are reported with nil
// objectives) and returns its removal function. Together with
// AddObserver this gives a consumer the complete stream of results the
// cache ever learns: fresh evaluations arrive through the evaluation
// observers, warm-start insertions through the prime observers, and no
// result is ever delivered on both channels. fn runs outside the
// evaluator's lock but must be safe for concurrent calls.
func (c *CachingEvaluator) AddPrimeObserver(fn func(cfg skeleton.Config, objs []float64)) (remove func()) {
	c.mu.Lock()
	if c.primeObs == nil {
		c.primeObs = map[int]func(skeleton.Config, []float64){}
	}
	c.nextPrime++
	id := c.nextPrime
	c.primeObs[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.primeObs, id)
		c.mu.Unlock()
	}
}

// primeObserverList snapshots the prime observers in registration
// order. Callers hold c.mu.
func (c *CachingEvaluator) primeObserverList() []func(skeleton.Config, []float64) {
	if len(c.primeObs) == 0 {
		return nil
	}
	out := make([]func(skeleton.Config, []float64), 0, len(c.primeObs))
	for id := 1; id <= c.nextPrime; id++ {
		if fn, ok := c.primeObs[id]; ok {
			out = append(out, fn)
		}
	}
	return out
}

// AddObserver registers fn to receive the fresh results of every
// Evaluate batch — once per batch, when the batch's leaders have
// finished, as parallel slices in batch order: the configurations, their
// Config.Key strings and their results — and returns its removal
// function. Every completed fresh evaluation is reported exactly once:
// cache hits, in-flight followers, primed entries and aborted
// evaluations are not reported, failed evaluations are reported with
// nil objectives, and a batch cut short by cancellation reports what it
// completed. The tuning database journals a generation as one record
// batch this way, checkpointing traces it and the progress feed counts
// it. Observers run in registration order, outside the evaluator's
// lock, and share the slices: fn must be safe for concurrent calls
// (concurrent batches report concurrently) and must not modify what it
// is handed. It may keep the key strings: they are cut from one string
// per batch, the one the cache keeps its keys in, and never written. A
// batch that starts while no observer is registered is not tracked, and
// so reported to nobody.
func (c *CachingEvaluator) AddObserver(fn func(cfgs []skeleton.Config, keys []string, objs [][]float64)) (remove func()) {
	c.mu.Lock()
	c.nextObs++
	id := c.nextObs
	c.observers[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.observers, id)
		c.mu.Unlock()
	}
}

// report hands the observers one batch's fresh results: the slots of
// the leaders that completed (a withdrawn leader is negative).
func (c *CachingEvaluator) report(cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int) {
	freshCfgs := make([]skeleton.Config, 0, len(leaders))
	freshKeys := make([]string, 0, len(leaders))
	freshObjs := make([][]float64, 0, len(leaders))
	for _, i := range leaders {
		if i >= 0 {
			freshCfgs = append(freshCfgs, cfgs[i])
			freshKeys = append(freshKeys, keys[i])
			freshObjs = append(freshObjs, out[i])
		}
	}
	if len(freshCfgs) == 0 {
		return
	}
	c.mu.Lock()
	observers := make([]func([]skeleton.Config, []string, [][]float64), 0, len(c.observers))
	for id := 1; id <= c.nextObs; id++ {
		if fn, ok := c.observers[id]; ok {
			observers = append(observers, fn)
		}
	}
	c.mu.Unlock()
	for _, observe := range observers {
		observe(freshCfgs, freshKeys, freshObjs)
	}
}

// EvaluateOne evaluates a single configuration.
func (c *CachingEvaluator) EvaluateOne(cfg skeleton.Config) []float64 {
	return c.Evaluate([]skeleton.Config{cfg})[0]
}

// Evaluate implements Evaluator: cache hits are answered at once, every
// other distinct key is evaluated exactly once — by this batch (on the
// workers, at most parallelism at a time, globally) or by the concurrent
// batch that got to it first — and memoized. When the bound context is
// done, uncached configurations come back nil without being evaluated,
// cached or counted. The batch's fresh vectors are cut from one slab of
// len(leaders) × len(names) values, each cut's capacity capped at
// len(names); the cache keeps them, and so the slab, for the
// evaluator's life, as it keeps every value.
func (c *CachingEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	out := make([][]float64, len(cfgs))
	keys := batchKeys(cfgs)

	var leaders []int
	var slab []inflightEval
	var followers []follower
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
			followers = append(followers, follower{i, fl})
		} else if primed, ok := c.primed(key); ok {
			out[i] = primed
		} else if !cancelled {
			// Cancelled batches register nothing: the configuration
			// stays unknown so a resumed search evaluates it.
			if slab == nil {
				// Sized once, at the first leader, for every slot left.
				slab = make([]inflightEval, len(keys)-i)
				leaders = make([]int, 0, len(keys)-i)
			}
			c.inflight[key] = &slab[len(leaders)]
			leaders = append(leaders, i)
		}
	}
	c.mu.Unlock()

	if len(leaders) > 0 {
		vecs := make([]float64, len(leaders)*len(c.names))
		if c.sem == nil {
			c.leadInline(ctx, fn, cfgs, keys, out, leaders, slab, vecs)
		} else {
			c.leadOnWorkers(ctx, fn, cfgs, keys, out, leaders, vecs)
		}
		if observed {
			c.report(cfgs, keys, out, leaders)
		}
	}

	// Followers hold no semaphore slot and wait only now, with this
	// batch's own leaders finished, so they cannot starve or deadlock
	// the leaders they are waiting on.
	for _, f := range followers {
		<-f.fl.done
		out[f.slot] = f.fl.objs
	}
	return out
}

// leadInline evaluates a batch's leaders one after another in the
// calling goroutine, fresh vectors into their cuts of vecs, checking
// the context before each, and then publishes them all at once. A
// leader whose evaluation aborts, and every leader once the context is
// done, is withdrawn: struck from leaders (as ^slot, which report
// skips), so what is left is what completed.
func (c *CachingEvaluator) leadInline(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int, slab []inflightEval, vecs []float64) {
	m := len(c.names)
	n := 0
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves its key, and the keys of the leaders after it,
	// unknown and their followers released rather than registered in
	// flight for ever; what completed before it is published.
	defer func() { c.publish(keys, out, leaders, n, slab) }()
	for ; n < len(leaders) && ctx.Err() == nil; n++ {
		i, at := leaders[n], n*m
		objs, err := fn(ctx, cfgs[i], vecs[at:at:at+m])
		if err != nil {
			leaders[n] = ^i
			continue
		}
		out[i] = objs
	}
}

// publish ends an inline batch under one lock: it caches, counts and
// hands to their followers the results of the first n leaders that were
// not withdrawn, withdraws every leader from n on, and then releases
// the followers of all of them.
func (c *CachingEvaluator) publish(keys []string, out [][]float64, leaders []int, n int, slab []inflightEval) {
	c.mu.Lock()
	for j, i := range leaders {
		if j >= n && i >= 0 {
			i = ^i
			leaders[j] = i
		}
		if i < 0 {
			delete(c.inflight, keys[^i])
			continue
		}
		delete(c.inflight, keys[i])
		c.cache[keys[i]] = out[i]
		if out[i] != nil {
			c.evals++
		}
		slab[j].objs = out[i]
	}
	c.mu.Unlock()
	// No follower can reach a leader's rendezvous once its key is out
	// of c.inflight, so done is read safely outside the lock.
	for j := range leaders {
		if done := slab[j].done; done != nil {
			close(done)
		}
	}
}

// leadOnWorkers drains a batch's leaders with min(parallelism, leaders)
// workers, the calling goroutine being one of them, each evaluation
// holding a slot of the global semaphore and publishing on its own. A
// withdrawn leader is struck from leaders (as ^slot, which report
// skips), so what is left when the workers are done is what completed.
func (c *CachingEvaluator) leadOnWorkers(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int, vecs []float64) {
	m := len(c.names)
	var next atomic.Int64
	drain := func() {
		for n := next.Add(1) - 1; n < int64(len(leaders)); n = next.Add(1) - 1 {
			i, at := leaders[n], int(n)*m
			objs, ok := c.lead(ctx, fn, cfgs[i], keys[i], vecs[at:at:at+m])
			out[i] = objs
			if !ok {
				leaders[n] = ^i
			}
		}
	}
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves the leaders nobody has claimed unknown and their
	// followers released rather than registered in flight for ever.
	// When the workers are done, every leader is claimed already.
	defer func() {
		for n := next.Add(1) - 1; n < int64(len(leaders)); n = next.Add(1) - 1 {
			c.withdraw(keys[leaders[n]])
		}
	}()
	var wg sync.WaitGroup
	if w := min(cap(c.sem), len(leaders)); w > 1 {
		// One closure for the batch's workers, not one each.
		worker := func() {
			defer wg.Done()
			drain()
		}
		wg.Add(w - 1)
		for ; w > 1; w-- {
			go worker()
		}
	}
	drain()
	wg.Wait()
}

// batchKeys renders the keys of a batch end to end — each followed by a
// space, which no key holds — into one buffer, copies it into one
// string and cuts keys[i], cfgs[i].Key(), from it: the string and the
// slice are the batch's allocations for its keys, however many it holds
// (and the buffer, past 1 KiB of keys). The string is fresh for the
// batch and never written, so the cache and the observers may keep the
// keys.
func batchKeys(cfgs []skeleton.Config) []string {
	var stack [1024]byte // a generation of thirty four-parameter keys fits
	buf := stack[:0]
	for _, cfg := range cfgs {
		buf = append(cfg.AppendKey(buf), ' ')
	}
	all := string(buf)
	keys := make([]string, len(cfgs))
	for i := range keys {
		end := strings.IndexByte(all, ' ')
		keys[i], all = all[:end], all[end+1:]
	}
	return keys
}

// lead evaluates one configuration the calling batch registered in
// c.inflight into dst, publishes the result and releases the key's
// followers. ok reports a completed evaluation — cached, and due to the
// observers; it is false, with the configuration left unknown, when the
// context is done before the evaluation starts or the evaluation
// aborts.
func (c *CachingEvaluator) lead(ctx context.Context, fn CtxEvalFunc, cfg skeleton.Config, key string, dst []float64) (objs []float64, ok bool) {
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves the key unknown and its followers released rather
	// than registered in flight for ever.
	released := false
	defer func() {
		if !released {
			c.withdraw(key)
		}
	}()

	objs, err := c.evalInSlot(ctx, fn, cfg, dst)

	c.mu.Lock()
	fl := c.inflight[key]
	delete(c.inflight, key)
	if err == nil {
		c.cache[key] = objs
		if objs != nil {
			c.evals++
		}
		fl.objs = objs
	}
	c.mu.Unlock()
	released = true
	if fl.done != nil {
		close(fl.done)
	}
	return objs, err == nil
}

// withdraw leaves a key the calling batch registered in c.inflight
// unknown and releases its followers.
func (c *CachingEvaluator) withdraw(key string) {
	c.mu.Lock()
	done := c.inflight[key].done
	delete(c.inflight, key)
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// evalInSlot runs fn on cfg and dst while holding one slot of the
// global semaphore. A non-nil error means the evaluation aborted or
// never started because ctx is done.
func (c *CachingEvaluator) evalInSlot(ctx context.Context, fn CtxEvalFunc, cfg skeleton.Config, dst []float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
		// select may take this arm although ctx is done as well:
		// re-checking is what keeps a cancelled search from starting
		// another evaluation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		objs, err := fn(ctx, cfg, dst)
		if err != nil {
			return nil, err
		}
		return objs, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
