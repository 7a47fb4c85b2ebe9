package objective

import (
	"context"
	"sort"
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
// memoization cache keyed by a configuration's values, in-flight
// deduplication, batch evaluation — bounded parallel for functions that
// can block — and the E metric (distinct successful evaluations).
//
// Evaluate handles a batch as a batch. One pass under one lock sorts
// its configurations into hits (answered from the cache), leaders
// (configurations nobody is evaluating: this batch registers them in
// flight and evaluates them) and followers (configurations in flight
// already — in a concurrent batch, or earlier in this one). An evaluator
// built around a function that can block (NewCachingEvaluator,
// Measured) drains the leaders with min(parallelism, leaders) workers
// pulling from a shared index, the calling goroutine being one of them,
// so a batch of one runs inline and an all-hit batch starts nothing.
// The simulated evaluator's function cannot block, and handing it to
// another goroutine costs more than it does: its batches evaluate their
// leaders one after another in the calling goroutine, take no semaphore
// slot and start no worker, and publish them under one more lock.
// Followers are resolved only after the batch's own leaders have
// finished: a batch never waits while holding work somebody else may be
// waiting for, so two batches following each other's leaders cannot
// deadlock.
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
// The cache is a table and one primed layer. The table (configTable)
// is keyed by the configurations' int64 values, which it copies, so it
// keeps nothing of its callers' configurations and renders no key:
// each entry is unknown, in flight or done. The primed layer is a warm
// start's batch of results, its Config.Key strings strictly increasing,
// which the cache reads in place by binary search instead of copying it
// into the table (see PrimeBatch). A configuration is looked up in the
// table, then — on a miss, with a layer attached, its key rendered into
// a stack buffer — in the layer. A Config.Key string is otherwise
// rendered only for the observers.
type CachingEvaluator struct {
	names []string
	// sem bounds the workers' evaluations. It is nil for an evaluator
	// whose function cannot block: its batches run inline.
	sem chan struct{}

	mu    sync.Mutex
	fn    CtxEvalFunc
	ctx   context.Context
	table configTable
	// inflight counts the table's entries in flight; followed holds the
	// rendezvous of those a follower waits for, made when the first
	// follower arrives.
	inflight  int
	followed  map[int32]*inflightEval
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
// is still running, made by its first follower (under c.mu), so the
// usual case — nobody else asks for it meanwhile — costs none. The
// leader hands it the result, nil if withdrawn, and closes done.
type inflightEval struct {
	done chan struct{}
	objs []float64
}

// follower is a batch slot waiting for another leader's result.
type follower struct {
	slot int
	fl   *inflightEval
}

// leader is a batch slot this batch evaluates and its table entry. A
// withdrawn leader's slot is struck out as ^slot, which report skips.
type leader struct {
	slot, entry int32
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
// batch for one configuration. It returns the number of entries
// inserted.
//
// A batch of more than one result whose keys are strictly increasing —
// a warm start's history, in store-key order — becomes the cache's
// primed layer, if it has none yet and nothing is in flight: the cache
// keeps keys and objs themselves, for its whole life, and reads them in
// place. Any other batch is inserted into the table, its slot index
// grown once to fit: the table copies the configurations' values and
// keeps the objective slices. Either way the caller must not modify the
// keys or objectives it handed over afterwards.
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
	// flight the layer could answer for its configuration once the
	// evaluation is withdrawn, where an inserted batch skips it.
	layer := len(keys) > 1 && len(c.primedKeys) == 0 && c.inflight == 0 && increasing(keys)
	if !layer {
		c.table.reserve(len(cfgs))
	}
	// A layer primed into an empty table — a warm start's fresh cache —
	// skips nothing, so its configurations need not be looked up.
	fresh := layer && c.table.n == 0
	observers := c.primeObserverList()
	var inserted []int
	primed := 0
	for i, cfg := range cfgs {
		if !fresh && !c.prime(cfg, objs[i], !layer) {
			continue
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

// prime reports whether cfg is unknown to the cache — neither cached
// nor in flight — and, with insert, caches objs as its result (nil for
// an empty vector, a failure like a nil one). Callers hold c.mu.
func (c *CachingEvaluator) prime(cfg skeleton.Config, objs []float64, insert bool) bool {
	e, h := c.table.lookup(cfg)
	if e >= 0 && c.table.at(e).state != unknown {
		return false
	}
	if _, ok := c.primed(cfg); ok {
		return false
	}
	if insert {
		if e < 0 {
			e = c.table.insert(cfg, h)
		}
		if len(objs) == 0 {
			objs = nil
		}
		ent := c.table.at(e)
		ent.state, ent.objs = done, objs
	}
	return true
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

// primed returns the result of cfg in the primed layer, nil for an
// empty vector as for a nil one. With a layer attached it renders cfg's
// key into a stack buffer for the binary search. Callers hold c.mu.
func (c *CachingEvaluator) primed(cfg skeleton.Config) ([]float64, bool) {
	if len(c.primedKeys) == 0 {
		return nil, false
	}
	var stack [64]byte // four-parameter configurations render well within it
	key := cfg.AppendKey(stack[:0])
	i := sort.Search(len(c.primedKeys), func(i int) bool { return c.primedKeys[i] >= string(key) })
	if i == len(c.primedKeys) || c.primedKeys[i] != string(key) {
		return nil, false
	}
	if len(c.primedObjs[i]) == 0 {
		return nil, true
	}
	return c.primedObjs[i], true
}

// Reserve grows the cache's slot index, once, to hold n more entries
// than it does: a caller that knows how many configurations it is about
// to evaluate — a brute-force sweep — spares the index the doublings on
// the way. Entries and values are held in fixed-size chunks, which
// growth never copies.
func (c *CachingEvaluator) Reserve(n int) {
	c.mu.Lock()
	c.table.reserve(n)
	c.mu.Unlock()
}

// Prime is PrimeBatch of one result, inserted into the table; it
// reports whether the entry was inserted. It renders no key — unless a
// primed layer is attached, into a stack buffer — so a resumed search
// primes its journal without allocating per entry beyond the table's
// growth.
func (c *CachingEvaluator) Prime(cfg skeleton.Config, objs []float64) bool {
	c.mu.Lock()
	ok := c.prime(cfg, objs, true)
	var observers []func(skeleton.Config, []float64)
	if ok {
		observers = c.primeObserverList()
	}
	c.mu.Unlock()
	for _, observe := range observers {
		observe(cfg, objs)
	}
	return ok
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
	if e, _ := c.table.lookup(cfg); e >= 0 {
		if ent := c.table.at(e); ent.state == done {
			return ent.objs, true
		}
	}
	return c.primed(cfg)
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
// is handed. The configurations are valid only for the call, as they
// are for Evaluate, so an observer copies what it keeps; the four that
// keep any do: tunedb's resident history (history.add, behind
// DB.PutEvals) copies a batch's values into one slab, the surrogate
// screen's observe clones each configuration, the checkpoint trace
// cuts copies from one slab a batch, and the surrogate experiment's
// priming observer appends a copy of each. It may keep the key
// strings: they are rendered for the observers, cut from one string
// per batch, and never written. The objective vectors are the cache's
// and never written either. A batch that starts while no observer is
// registered is not tracked, and so reported to nobody — nor are its
// keys rendered.
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
// the leaders that completed (a withdrawn leader's is negative), with
// their keys rendered.
func (c *CachingEvaluator) report(cfgs []skeleton.Config, out [][]float64, leaders []leader) {
	freshCfgs := make([]skeleton.Config, 0, len(leaders))
	freshObjs := make([][]float64, 0, len(leaders))
	for _, l := range leaders {
		if l.slot >= 0 {
			freshCfgs = append(freshCfgs, cfgs[l.slot])
			freshObjs = append(freshObjs, out[l.slot])
		}
	}
	if len(freshCfgs) == 0 {
		return
	}
	freshKeys := batchKeys(freshCfgs)
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
// other distinct configuration is evaluated exactly once — by this batch
// (on the workers, at most parallelism at a time, globally) or by the
// concurrent batch that got to it first — and memoized. When the bound
// context is done, uncached configurations come back nil without being
// evaluated, cached or counted. The batch's fresh vectors are cut from
// one slab of len(leaders) × len(names) values, each cut's capacity
// capped at len(names); the cache keeps them, and so the slab, for the
// evaluator's life, as it keeps every value. The table copies the
// values of the configurations it memoizes, so cfgs are read only
// during the call.
func (c *CachingEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	out := make([][]float64, len(cfgs))

	var leaders []leader
	var followers []follower
	c.mu.Lock()
	fn, ctx := c.fn, c.ctx
	observed := len(c.observers) > 0
	if ctx == nil {
		ctx = context.Background()
	}
	cancelled := ctx.Err() != nil
	for i, cfg := range cfgs {
		e, h := c.table.lookup(cfg)
		if e >= 0 {
			switch ent := c.table.at(e); ent.state {
			case done:
				out[i] = ent.objs
				continue
			case inFlight:
				followers = append(followers, follower{i, c.rendezvous(e)})
				continue
			}
		}
		if primed, ok := c.primed(cfg); ok {
			out[i] = primed
		} else if !cancelled {
			// Cancelled batches register nothing: the configuration
			// stays unknown so a resumed search evaluates it.
			if e < 0 {
				e = c.table.insert(cfg, h)
			}
			c.table.at(e).state = inFlight
			c.inflight++
			if leaders == nil {
				// Sized once, at the first leader, for every slot left.
				leaders = make([]leader, 0, len(cfgs)-i)
			}
			leaders = append(leaders, leader{int32(i), e})
		}
	}
	c.mu.Unlock()

	if len(leaders) > 0 {
		vecs := make([]float64, len(leaders)*len(c.names))
		if c.sem == nil {
			c.leadInline(ctx, fn, cfgs, out, leaders, vecs)
		} else {
			c.leadOnWorkers(ctx, fn, cfgs, out, leaders, vecs)
		}
		if observed {
			c.report(cfgs, out, leaders)
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

// rendezvous returns the rendezvous of in-flight entry e, making it for
// the first follower. Callers hold c.mu.
func (c *CachingEvaluator) rendezvous(e int32) *inflightEval {
	fl := c.followed[e]
	if fl == nil {
		if c.followed == nil {
			c.followed = map[int32]*inflightEval{}
		}
		fl = &inflightEval{done: make(chan struct{})}
		c.followed[e] = fl
	}
	return fl
}

// settle ends the evaluation of in-flight entry e: when ok, objs is its
// result, cached and counted; otherwise the evaluation is withdrawn and
// the entry goes back to unknown. Its followers, if any, are released
// with what it got. Callers hold c.mu.
func (c *CachingEvaluator) settle(e int32, objs []float64, ok bool) {
	ent := c.table.at(e)
	c.inflight--
	if ok {
		ent.state, ent.objs = done, objs
		if objs != nil {
			c.evals++
		}
	} else {
		ent.state, objs = unknown, nil
	}
	if fl, followed := c.followed[e]; followed {
		delete(c.followed, e)
		fl.objs = objs
		close(fl.done)
	}
}

// leadInline evaluates a batch's leaders one after another in the
// calling goroutine, fresh vectors into their cuts of vecs, checking
// the context before each, and then publishes them all at once. A
// leader whose evaluation aborts, and every leader once the context is
// done, is withdrawn: struck out of leaders (as ^slot, which report
// skips), so what is left is what completed.
func (c *CachingEvaluator) leadInline(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, out [][]float64, leaders []leader, vecs []float64) {
	m := len(c.names)
	n := 0
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves its configuration, and those of the leaders after
	// it, unknown and their followers released rather than registered
	// in flight for ever; what completed before it is published.
	defer func() { c.publish(out, leaders, n) }()
	for ; n < len(leaders) && ctx.Err() == nil; n++ {
		i, at := leaders[n].slot, n*m
		objs, err := fn(ctx, cfgs[i], vecs[at:at:at+m])
		if err != nil {
			leaders[n].slot = ^i
			continue
		}
		out[i] = objs
	}
}

// publish ends an inline batch under one lock: it caches, counts and
// hands to their followers the results of the first n leaders that were
// not withdrawn, and withdraws every leader from n on.
func (c *CachingEvaluator) publish(out [][]float64, leaders []leader, n int) {
	c.mu.Lock()
	for j := range leaders {
		l := &leaders[j]
		if j >= n && l.slot >= 0 {
			l.slot = ^l.slot
		}
		if l.slot >= 0 {
			c.settle(l.entry, out[l.slot], true)
		} else {
			c.settle(l.entry, nil, false)
		}
	}
	c.mu.Unlock()
}

// leadOnWorkers drains a batch's leaders with min(parallelism, leaders)
// workers, the calling goroutine being one of them, each evaluation
// holding a slot of the global semaphore and publishing on its own. A
// withdrawn leader is struck out of leaders (as ^slot, which report
// skips), so what is left when the workers are done is what completed.
func (c *CachingEvaluator) leadOnWorkers(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, out [][]float64, leaders []leader, vecs []float64) {
	m := len(c.names)
	var next atomic.Int64
	drain := func() {
		for n := next.Add(1) - 1; n < int64(len(leaders)); n = next.Add(1) - 1 {
			l, at := leaders[n], int(n)*m
			objs, ok := c.lead(ctx, fn, cfgs[l.slot], l.entry, vecs[at:at:at+m])
			out[l.slot] = objs
			if !ok {
				leaders[n].slot = ^l.slot
			}
		}
	}
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves the leaders nobody has claimed unknown and their
	// followers released rather than registered in flight for ever.
	// When the workers are done, every leader is claimed already.
	defer func() {
		for n := next.Add(1) - 1; n < int64(len(leaders)); n = next.Add(1) - 1 {
			c.withdraw(leaders[n].entry)
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
// batch and never written, so the observers may keep the keys.
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
// flight, entry e of the table, into dst, publishes the result and
// releases its followers. ok reports a completed evaluation — cached,
// and due to the observers; it is false, with the configuration left
// unknown, when the context is done before the evaluation starts or the
// evaluation aborts.
func (c *CachingEvaluator) lead(ctx context.Context, fn CtxEvalFunc, cfg skeleton.Config, e int32, dst []float64) (objs []float64, ok bool) {
	// Deferred, so that an evaluation that panics into a recovering
	// caller leaves the configuration unknown and its followers
	// released rather than registered in flight for ever.
	released := false
	defer func() {
		if !released {
			c.withdraw(e)
		}
	}()

	objs, err := c.evalInSlot(ctx, fn, cfg, dst)

	c.mu.Lock()
	c.settle(e, objs, err == nil)
	c.mu.Unlock()
	released = true
	return objs, err == nil
}

// withdraw leaves entry e, which the calling batch registered in
// flight, unknown and releases its followers.
func (c *CachingEvaluator) withdraw(e int32) {
	c.mu.Lock()
	c.settle(e, nil, false)
	c.mu.Unlock()
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
