package objective

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"autotune/internal/skeleton"
)

// mapEvaluator is the caching evaluator as it stood while its cache was
// two maps keyed by Config.Key — cache for completed results, inflight
// for the evaluations running — beside the primed layer: the reference
// that FuzzEvaluateMatchesReference and TestPrimeBatchMatchesPrime hold
// CachingEvaluator to. Its methods are the ones CachingEvaluator had,
// unchanged; every key of a batch is rendered, into one string cut by
// mapBatchKeys, and looked up as a string.
type mapEvaluator struct {
	names []string
	// sem bounds the workers' evaluations. It is nil for an evaluator
	// whose function cannot block: its batches run inline.
	sem chan struct{}

	mu        sync.Mutex
	fn        CtxEvalFunc
	ctx       context.Context
	cache     map[string][]float64
	inflight  map[string]*mapInflight
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

// mapInflight is the rendezvous of a key in mapEvaluator.inflight.
type mapInflight struct {
	done chan struct{}
	objs []float64
}

// mapFollower is a batch slot waiting for another leader's result.
type mapFollower struct {
	slot int
	fl   *mapInflight
}

// newMapEvaluator is a map-based evaluator around fn: inline, as a
// Sim's, or on the workers at parallelism.
func newMapEvaluator(names []string, parallelism int, inline bool, fn CtxEvalFunc) *mapEvaluator {
	c := &mapEvaluator{
		names:     append([]string(nil), names...),
		fn:        fn,
		cache:     map[string][]float64{},
		inflight:  map[string]*mapInflight{},
		observers: map[int]func([]skeleton.Config, []string, [][]float64){},
		primeObs:  map[int]func(skeleton.Config, []float64){},
	}
	if !inline {
		c.sem = make(chan struct{}, max(parallelism, 1))
	}
	return c
}

func (c *mapEvaluator) Evaluations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evals
}

func (c *mapEvaluator) SetContext(ctx context.Context) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
}

func (c *mapEvaluator) PrimeBatch(cfgs []skeleton.Config, keys []string, objs [][]float64) int {
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

func (c *mapEvaluator) cached(key string) ([]float64, bool) {
	if objs, ok := c.cache[key]; ok {
		return objs, true
	}
	return c.primed(key)
}

func (c *mapEvaluator) primed(key string) ([]float64, bool) {
	i, ok := slices.BinarySearch(c.primedKeys, key)
	if !ok || len(c.primedObjs[i]) == 0 {
		return nil, ok
	}
	return c.primedObjs[i], true
}

func (c *mapEvaluator) reserve(n int) {
	if len(c.cache) >= n {
		return
	}
	grown := make(map[string][]float64, len(c.cache)+n)
	for key, cached := range c.cache {
		grown[key] = cached
	}
	c.cache = grown
}

func (c *mapEvaluator) Prime(cfg skeleton.Config, objs []float64) bool {
	return c.PrimeBatch([]skeleton.Config{cfg}, []string{cfg.Key()}, [][]float64{objs}) == 1
}

func (c *mapEvaluator) Lookup(cfg skeleton.Config) (objs []float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cached(cfg.Key())
}

func (c *mapEvaluator) AddPrimeObserver(fn func(cfg skeleton.Config, objs []float64)) (remove func()) {
	c.mu.Lock()
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

func (c *mapEvaluator) primeObserverList() []func(skeleton.Config, []float64) {
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

func (c *mapEvaluator) AddObserver(fn func(cfgs []skeleton.Config, keys []string, objs [][]float64)) (remove func()) {
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

func (c *mapEvaluator) report(cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int) {
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

func (c *mapEvaluator) EvaluateOne(cfg skeleton.Config) []float64 {
	return c.Evaluate([]skeleton.Config{cfg})[0]
}

func (c *mapEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	out := make([][]float64, len(cfgs))
	keys := mapBatchKeys(cfgs)

	var leaders []int
	var slab []mapInflight
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
		} else if primed, ok := c.primed(key); ok {
			out[i] = primed
		} else if !cancelled {
			// Cancelled batches register nothing: the configuration
			// stays unknown so a resumed search evaluates it.
			if slab == nil {
				// Sized once, at the first leader, for every slot left.
				slab = make([]mapInflight, len(keys)-i)
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

func (c *mapEvaluator) leadInline(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int, slab []mapInflight, vecs []float64) {
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

func (c *mapEvaluator) publish(keys []string, out [][]float64, leaders []int, n int, slab []mapInflight) {
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

func (c *mapEvaluator) leadOnWorkers(ctx context.Context, fn CtxEvalFunc, cfgs []skeleton.Config, keys []string, out [][]float64, leaders []int, vecs []float64) {
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

// mapBatchKeys renders the keys of a batch end to end — each followed
// by a space, which no key holds — into one buffer, copies it into one
// string and cuts keys[i], cfgs[i].Key(), from it.
func mapBatchKeys(cfgs []skeleton.Config) []string {
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

func (c *mapEvaluator) lead(ctx context.Context, fn CtxEvalFunc, cfg skeleton.Config, key string, dst []float64) (objs []float64, ok bool) {
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

func (c *mapEvaluator) withdraw(key string) {
	c.mu.Lock()
	done := c.inflight[key].done
	delete(c.inflight, key)
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

func (c *mapEvaluator) evalInSlot(ctx context.Context, fn CtxEvalFunc, cfg skeleton.Config, dst []float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
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
