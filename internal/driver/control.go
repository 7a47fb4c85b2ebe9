package driver

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/skeleton"
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

// buildControl assembles the optimizer run control from the tuning
// options: the bounding context, the evaluation watchdog on the shared
// evaluation cache, and the checkpoint journal (fresh for
// CheckpointPath, folded and reopened for ResumeFrom; CheckOptions has
// already refused a method that cannot use one). The returned cleanup
// closes the journal; call it once the search is over. key is the
// problem's tuning-database key: a checkpointed run tags its snapshots
// with problemTag of it, so that a journal is never resumed under
// another problem.
func buildControl(opt Options, key tunedb.Key, eval objective.Evaluator) (optimizer.Control, func(), error) {
	ctrl := optimizer.Control{Ctx: opt.Context}
	if opt.checkpointed() {
		ctrl.Problem = problemTag(key, opt)
	}
	cleanup := func() {}
	if opt.EvalTimeout > 0 {
		if sc, ok := eval.(objective.SharedCacher); ok {
			sc.SharedCache().WrapEvalFunc(resilience.Watchdog(opt.EvalTimeout))
		}
	}
	if opt.OnProgress != nil {
		if sc, ok := eval.(objective.SharedCacher); ok {
			var done atomic.Int64
			fn := opt.OnProgress
			sc.SharedCache().AddObserver(func(cfgs []skeleton.Config, _ [][]float64) {
				fn(int(done.Add(int64(len(cfgs)))))
			})
		}
	}
	switch {
	case opt.ResumeFrom != "":
		cp, snap, err := resilience.ResumeCheckpoint(opt.ResumeFrom)
		if err != nil {
			return ctrl, cleanup, err
		}
		ctrl.Checkpointer = cp
		ctrl.Resume = snap
		cleanup = func() { cp.Close() }
	case opt.CheckpointPath != "":
		cp, err := resilience.CreateCheckpoint(opt.CheckpointPath)
		if err != nil {
			return ctrl, cleanup, err
		}
		ctrl.Checkpointer = cp
		cleanup = func() { cp.Close() }
	}
	return ctrl, cleanup, nil
}
