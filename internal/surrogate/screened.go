package surrogate

import (
	"fmt"
	"sort"
	"sync"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// Options configures the screened evaluator. Zero values select the
// defaults.
type Options struct {
	// TopK is the maximum number of *new* (never evaluated, never
	// primed) candidates admitted per screened batch; the rest report
	// as failed without costing a real evaluation. 0 selects a quarter
	// of the batch's new candidates (min 2). Setting TopK at or above
	// the population size turns the screen into an exact pass-through.
	TopK int
	// MinSamples is the number of successful evaluations the model
	// must absorb before screening activates; earlier batches pass
	// through untouched (the screen must never starve a search it
	// cannot yet judge). Default 2*dim+6.
	MinSamples int
	// ExploreFrac is the fraction of the admitted slots reserved for
	// the highest-uncertainty candidates regardless of their predicted
	// rank, so the screen keeps probing regions the model knows
	// nothing about. Default 0.25.
	ExploreFrac float64
	// Features is the static region-feature context from
	// internal/features (AsMap); nil is valid.
	Features map[string]float64
}

func (o Options) withDefaults(dim int) Options {
	if o.MinSamples <= 0 {
		o.MinSamples = 2*dim + 6
	}
	if o.ExploreFrac <= 0 {
		o.ExploreFrac = 0.25
	} else if o.ExploreFrac > 1 {
		o.ExploreFrac = 1
	}
	return o
}

// Stats counts what the screen did, for reporting.
type Stats struct {
	// Batches is the number of Evaluate calls; ScreenedBatches how
	// many of them had an active (trained) screen.
	Batches, ScreenedBatches int
	// Candidates counts the new configurations considered by active
	// screens; Admitted passed to the real evaluator, Skipped were
	// pruned without costing E.
	Candidates, Admitted, Skipped int
	// TrainSamples is the number of successful evaluations folded into
	// the model at generation barriers.
	TrainSamples int
}

// sample is one observed result awaiting the next generation barrier.
type sample struct {
	key  string
	cfg  skeleton.Config
	objs []float64
}

// Screened layers surrogate pre-screening over an evaluator built on
// objective.CachingEvaluator. It trains from everything the shared
// cache learns — fresh evaluations via AddObserver, tuning-database
// warm-start records and stored fronts via AddPrimeObserver — and
// screens each Evaluate batch: configurations already known to the
// cache pass through for free, and of the genuinely new ones only the
// top-K by predicted Pareto rank (plus an uncertainty quota) reach the
// real evaluator. Screened-out configurations report nil objectives,
// which every search strategy already tolerates as a failed
// evaluation; they are not cached, so a later generation may propose
// them again once the model has changed its mind.
//
// Determinism: the model and the known-configuration set are frozen
// during a generation and refreshed only inside SyncGeneration, which
// the search engines call at generation barriers; pending observations
// are folded in canonical key order. Screening decisions therefore
// depend only on the batch and the last barrier's state — never on how
// concurrent islands interleave — so fixed-seed fronts stay
// byte-identical regardless of GOMAXPROCS.
type Screened struct {
	inner objective.Evaluator
	ce    *objective.CachingEvaluator
	space skeleton.Space
	opt   Options

	// modelMu guards model and known: read-locked by Evaluate during a
	// generation, write-locked only at generation barriers.
	modelMu sync.RWMutex
	model   *Model
	known   map[string]bool

	// pendMu guards the observation buffer and the counters; observer
	// callbacks fire concurrently with Evaluate.
	pendMu  sync.Mutex
	pending []sample
	stats   Stats

	removeObs   func()
	removePrime func()
}

// NewScreened wraps inner, which must be built on a
// objective.CachingEvaluator (anything implementing
// objective.SharedCacher: Sim, Measured, or a CachingEvaluator
// itself). Construct the screen before priming the cache or starting
// the search so no result escapes the training stream.
func NewScreened(space skeleton.Space, inner objective.Evaluator, opt Options) (*Screened, error) {
	sc, ok := inner.(objective.SharedCacher)
	if !ok {
		return nil, fmt.Errorf("surrogate: evaluator %T does not expose a shared cache", inner)
	}
	if opt.TopK < 0 {
		return nil, fmt.Errorf("surrogate: negative ScreenTopK %d", opt.TopK)
	}
	s := &Screened{
		inner: inner,
		ce:    sc.SharedCache(),
		space: space,
		opt:   opt.withDefaults(space.Dim()),
		model: NewModel(space, opt.Features, 0),
		known: map[string]bool{},
	}
	s.removeObs = s.ce.AddObserver(func(cfgs []skeleton.Config, keys []string, objs [][]float64) {
		for i, cfg := range cfgs {
			s.observe(cfg, keys[i], objs[i])
		}
	})
	s.removePrime = s.ce.AddPrimeObserver(func(cfg skeleton.Config, objs []float64) {
		s.observe(cfg, cfg.Key(), objs)
	})
	return s, nil
}

// Close detaches the screen from the shared cache's observer lists.
func (s *Screened) Close() {
	if s.removeObs != nil {
		s.removeObs()
		s.removeObs = nil
	}
	if s.removePrime != nil {
		s.removePrime()
		s.removePrime = nil
	}
}

// observe buffers one completed result (fresh or primed), whose
// Config.Key is key, until the next generation barrier.
func (s *Screened) observe(cfg skeleton.Config, key string, objs []float64) {
	c := cfg.Clone()
	s.pendMu.Lock()
	s.pending = append(s.pending, sample{key: key, cfg: c, objs: objs})
	s.pendMu.Unlock()
}

// SyncGeneration implements objective.GenerationSyncer: it folds the
// results observed since the last barrier into the model in canonical
// key order (so the update sequence — and hence every later prediction
// — is independent of evaluation interleaving) and refreshes the
// frozen known-configuration set. The engines call it after the
// initial populations and after every completed generation; it must
// not run concurrently with Evaluate.
func (s *Screened) SyncGeneration() {
	s.pendMu.Lock()
	batch := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
	s.modelMu.Lock()
	trained := 0
	for i, smp := range batch {
		if i > 0 && smp.key == batch[i-1].key {
			continue
		}
		s.known[smp.key] = true
		if smp.objs != nil {
			s.model.Observe(smp.cfg, smp.objs)
			trained++
		}
	}
	s.modelMu.Unlock()
	s.pendMu.Lock()
	s.stats.TrainSamples += trained
	s.pendMu.Unlock()
}

// Evaluate implements objective.Evaluator. Known configurations pass
// through (the cache answers them for free); new ones are screened
// once the model is trained. At least one new candidate always
// survives a screen — the floor that keeps a search stepping even
// under an aggressive TopK.
func (s *Screened) Evaluate(cfgs []skeleton.Config) [][]float64 {
	s.modelMu.RLock()
	admit := s.screen(cfgs)
	s.modelMu.RUnlock()
	if admit == nil {
		return s.inner.Evaluate(cfgs)
	}
	idx := make([]int, 0, len(cfgs))
	sub := make([]skeleton.Config, 0, len(cfgs))
	for i := range cfgs {
		if admit[i] {
			idx = append(idx, i)
			sub = append(sub, cfgs[i])
		}
	}
	out := make([][]float64, len(cfgs))
	for i, objs := range s.inner.Evaluate(sub) {
		out[idx[i]] = objs
	}
	return out
}

// cand is one new configuration competing for an admitted slot.
type cand struct {
	first int // batch index of the key's first occurrence
	pred  []float64
	unc   float64
}

// screen decides which batch members reach the real evaluator. A nil
// result means "everything" (inactive screen). Caller holds the model
// read lock.
func (s *Screened) screen(cfgs []skeleton.Config) []bool {
	s.pendMu.Lock()
	s.stats.Batches++
	s.pendMu.Unlock()
	if s.model.Samples() < s.opt.MinSamples {
		return nil
	}
	admit := make([]bool, len(cfgs))
	firstOf := map[string]int{}
	var news []cand
	for i, cfg := range cfgs {
		key := cfg.Key()
		if j, dup := firstOf[key]; dup {
			// Duplicate within the batch: shares the fate of its first
			// occurrence (the cache would deduplicate it anyway).
			admit[i] = admit[j]
			continue
		}
		firstOf[key] = i
		if s.known[key] {
			admit[i] = true
			continue
		}
		pred, unc, ok := s.model.Predict(cfg)
		if !ok {
			return nil
		}
		news = append(news, cand{first: i, pred: pred, unc: unc})
	}
	considered := len(news)
	k := s.opt.TopK
	if k <= 0 {
		k = (len(news) + 3) / 4
		if k < 2 {
			k = 2
		}
	}
	if k < 1 {
		k = 1 // min-survivors floor
	}
	if len(news) > k {
		// Rank by predicted non-domination depth; ties by uncertainty
		// (prefer the unknown), then batch position for determinism.
		ranks := paretoRanks(news)
		order := make([]int, len(news))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := order[a], order[b]
			if ranks[ca] != ranks[cb] {
				return ranks[ca] < ranks[cb]
			}
			if news[ca].unc != news[cb].unc {
				return news[ca].unc > news[cb].unc
			}
			return news[ca].first < news[cb].first
		})
		// Reserve a quota of the admitted slots for pure exploration:
		// the highest-uncertainty candidates, whatever their predicted
		// rank, so a confidently wrong model cannot starve discovery.
		ne := int(float64(k) * s.opt.ExploreFrac)
		if ne >= k {
			ne = k - 1
		}
		chosen := map[int]bool{}
		for _, ci := range order {
			if len(chosen) >= k-ne {
				break
			}
			chosen[ci] = true
		}
		if ne > 0 {
			expl := make([]int, 0, len(news))
			for i := range news {
				if !chosen[i] {
					expl = append(expl, i)
				}
			}
			sort.Slice(expl, func(a, b int) bool {
				ca, cb := expl[a], expl[b]
				if news[ca].unc != news[cb].unc {
					return news[ca].unc > news[cb].unc
				}
				return news[ca].first < news[cb].first
			})
			for _, ci := range expl[:ne] {
				chosen[ci] = true
			}
		}
		next := news[:0]
		for i, c := range news {
			if chosen[i] {
				next = append(next, c)
			}
		}
		news = next
	}
	for _, c := range news {
		admit[c.first] = true
	}
	// Re-resolve in-batch duplicates of newly admitted keys.
	for i, cfg := range cfgs {
		if j := firstOf[cfg.Key()]; j != i {
			admit[i] = admit[j]
		}
	}
	s.pendMu.Lock()
	s.stats.ScreenedBatches++
	s.stats.Candidates += considered
	s.stats.Admitted += len(news)
	s.stats.Skipped += considered - len(news)
	s.pendMu.Unlock()
	return admit
}

// ObjectiveNames implements objective.Evaluator.
func (s *Screened) ObjectiveNames() []string { return s.inner.ObjectiveNames() }

// Evaluations implements objective.Evaluator: the real evaluator's E.
// Screened-out candidates never reach it, which is the whole point.
func (s *Screened) Evaluations() int { return s.inner.Evaluations() }

// SharedCache implements objective.SharedCacher, so run control,
// tuning-database journaling and resilience middleware reach the
// underlying cache through the screen.
func (s *Screened) SharedCache() *objective.CachingEvaluator { return s.ce }

// Stats returns a snapshot of the screen's counters.
func (s *Screened) Stats() Stats {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return s.stats
}

// paretoRanks peels non-dominated layers off the predicted objective
// vectors: rank 0 is the predicted front, rank 1 the front of the
// rest, and so on.
func paretoRanks(cands []cand) []int {
	n := len(cands)
	ranks := make([]int, n)
	assigned := make([]bool, n)
	for r, left := 0, n; left > 0; r++ {
		var layer []int
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			dominated := false
			for j := 0; j < n; j++ {
				if j == i || assigned[j] {
					continue
				}
				if pareto.Dominates(cands[j].pred, cands[i].pred) {
					dominated = true
					break
				}
			}
			if !dominated {
				layer = append(layer, i)
			}
		}
		if len(layer) == 0 {
			// Identical vectors can deadlock peeling; sweep the rest
			// into this rank.
			for i := 0; i < n; i++ {
				if !assigned[i] {
					layer = append(layer, i)
				}
			}
		}
		for _, i := range layer {
			ranks[i] = r
			assigned[i] = true
		}
		left -= len(layer)
	}
	return ranks
}
