package driver

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"autotune/internal/features"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/skeleton"
	"autotune/internal/surrogate"
	"autotune/internal/tunedb"
)

// problemTag is what a checkpoint remembers of the problem it was
// written for: the tuning-database key — program, size, evaluator
// switches, machine signature, objectives, space — and what shapes the
// objective values beside it: the noise of the simulated evaluator, the
// effective repetition count of the measured one. Neither evaluator
// reads the other's setting, so neither moves the other's tag; a
// simulated tag hashes 0 repetitions, as it always has.
func problemTag(key tunedb.Key, opt Options) string {
	noise, reps := opt.NoiseAmp, 0
	if opt.Measured {
		noise, reps = 0, objective.EffectiveReps(opt.MeasuredReps)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%g|%d", key, noise, reps)
	return fmt.Sprintf("%016x", h.Sum64())
}

// chain is one region's evaluator chain: the evaluator its search
// calls, the run control that search runs under, and what is left to do
// once it is over. newChain assembles it, for tune and, once per
// region, for tuneJoint.
type chain struct {
	eval objective.Evaluator
	ctrl optimizer.Control
	// seeds is the warm start's share of the initial population, to go
	// before Options.Optimizer.InitialPopulation.
	seeds []skeleton.Config
	// finish surfaces the first error the journal met and stores the
	// search's front in the tuning database; without one it does
	// nothing.
	finish func(*optimizer.Result) error
	undo   []func()
}

// close undoes the layers, last first: the observers leave the cache
// and the checkpoint journal closes. Call it once the search is over.
func (c *chain) close() {
	for i := len(c.undo) - 1; i >= 0; i-- {
		c.undo[i]()
	}
}

// newChain builds p's evaluator chain for a search under opt, every
// layer hooking the evaluator's cache, in this order:
//
//  1. the evaluator — timed execution or the model — and its cache;
//  2. the surrogate screen, before anything primes the cache, so that
//     warm-start records reach the model through its prime observer:
//     stored history becomes instant training data;
//  3. the tuning database: the warm start primes the cache and, unless
//     the search resumes, seeds the population; then the journal hands
//     every evaluated batch — a generation — to the database as one
//     record batch;
//  4. the watchdog around the evaluation function;
//  5. the progress feed, after the journal, so that OnProgress fires
//     once its batch has been journaled;
//  6. run control: the context, the checkpoint journal (fresh, or
//     folded and reopened to resume) and the problem tag its snapshots
//     carry, so that a journal is never resumed under another problem.
//
// A warm start the database cannot read in full is an error, before
// anything is searched: a search started from part of its history
// returns a different front than the same request on a healthy disk,
// and nobody could tell. On an error what was built is undone.
func newChain(p *prepared, opt Options) (_ *chain, err error) {
	eval, ce, err := p.evaluator(opt)
	if err != nil {
		return nil, err
	}
	c := &chain{eval: eval, ctrl: optimizer.Control{Ctx: opt.Context},
		finish: func(*optimizer.Result) error { return nil }}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	space := p.region.Skeleton.Space
	if opt.screened() {
		// The region's static features enrich the model's basis.
		fmap := map[string]float64{}
		if fs, err := features.Extract(p.prog); err == nil {
			fmap = fs.AsMap()
		}
		scr, err := surrogate.NewScreened(space, eval, surrogate.Options{TopK: opt.ScreenTopK, Features: fmap})
		if err != nil {
			return nil, err
		}
		c.eval = scr
		c.undo = append(c.undo, scr.Close)
	}
	// The problem key is derived once, for the database and for the tag
	// a checkpoint carries; a search that asks for neither derives none.
	var key tunedb.Key
	if opt.DB != nil || opt.checkpointed() {
		key = p.key(opt)
	}
	if db := opt.DB; db != nil {
		sig := machine.SignatureOf(opt.Machine)
		if opt.WarmStart {
			if _, err := db.Warm(key, ce); err != nil {
				return nil, fmt.Errorf("driver: warm start: %w", err)
			}
		}
		// A resume reads its generation 0, seeds included, from the
		// checkpoint, so it derives none: another search may have
		// replaced the stored front since.
		if opt.WarmStart && opt.ResumeFrom == "" {
			popSize := opt.Optimizer.PopSize
			if popSize == 0 {
				popSize = 30
			}
			// Seed at most half the population so random exploration of
			// the space keeps its share of the budget.
			if c.seeds, err = db.Seeds(key, sig, space, (popSize+1)/2); err != nil {
				return nil, fmt.Errorf("driver: warm start: %w", err)
			}
		}
		var journalMu sync.Mutex
		var journalErr error
		c.undo = append(c.undo, ce.AddObserver(func(cfgs []skeleton.Config, keys []string, objs [][]float64) {
			if err := db.PutEvals(key, cfgs, keys, objs); err != nil && !tunedb.IsReadOnly(err) {
				// A read-only database (degraded after a disk fault) loses
				// only persistence, not correctness: the search keeps its
				// in-memory cache and the server surfaces the degradation
				// through health. Any other journaling error fails the run.
				journalMu.Lock()
				if journalErr == nil {
					journalErr = err
				}
				journalMu.Unlock()
			}
		}))
		c.finish = func(res *optimizer.Result) error {
			journalMu.Lock()
			err := journalErr
			journalMu.Unlock()
			if err != nil || res.Partial {
				// An interrupted search's front is best-so-far, not final:
				// the journaled evaluations are kept for warm starts, but
				// the front is not stored as this search's result.
				return err
			}
			rec := tunedb.FrontRecord{
				Key:            key,
				Machine:        sig,
				ObjectiveNames: c.eval.ObjectiveNames(),
				Evaluations:    res.Evaluations,
				Iterations:     res.Iterations,
			}
			for _, pt := range res.Front {
				cfg, _ := pt.Payload.(skeleton.Config)
				rec.Points = append(rec.Points, tunedb.FrontPoint{
					Config:     cfg,
					Objectives: append([]float64(nil), pt.Objectives...),
				})
			}
			if err := db.PutFront(rec); err != nil && !tunedb.IsReadOnly(err) {
				return err
			}
			return nil
		}
	}
	if opt.EvalTimeout > 0 {
		ce.WrapEvalFunc(resilience.Watchdog(opt.EvalTimeout))
	}
	if fn := opt.OnProgress; fn != nil {
		var done atomic.Int64
		c.undo = append(c.undo, ce.AddObserver(func(cfgs []skeleton.Config, _ []string, _ [][]float64) {
			fn(int(done.Add(int64(len(cfgs)))))
		}))
	}
	// CheckOptions has already refused a method that keeps no
	// checkpoint.
	if opt.checkpointed() {
		c.ctrl.Problem = problemTag(key, opt)
		var cp *resilience.Checkpoint
		if opt.ResumeFrom != "" {
			cp, c.ctrl.Resume, err = resilience.ResumeCheckpoint(opt.ResumeFrom)
		} else {
			cp, err = resilience.CreateCheckpoint(opt.CheckpointPath)
		}
		if err != nil {
			return nil, err
		}
		c.ctrl.Checkpointer = cp
		c.undo = append(c.undo, func() { cp.Close() })
	}
	return c, nil
}
