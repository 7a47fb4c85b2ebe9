package driver

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/skeleton"
)

// Checkpointable reports whether method keeps the per-generation state
// a checkpoint journal records and a resume rebuilds: it names a
// registered strategy that has a Restore. The one-shot baselines
// (random, grid) register none, and the driver-level modes
// (brute-force, race) are not strategies. This is the one place that
// decides it — buildControl's refusal, the list in its error and the
// tuning service's journaling all ask here.
func Checkpointable(method Method) bool {
	s, err := optimizer.StrategyByName(string(method))
	return err == nil && s.Restore != nil
}

// buildControl assembles the optimizer run control from the tuning
// options: the bounding context, the watchdog/retry guard on the
// shared evaluation cache, and the checkpoint journal (fresh for
// CheckpointPath, folded and reopened for ResumeFrom). The returned
// cleanup closes the journal; call it once the search is over.
func buildControl(opt Options, eval objective.Evaluator) (optimizer.Control, func(), error) {
	ctrl := optimizer.Control{Ctx: opt.Context}
	cleanup := func() {}
	if method := effectiveMethod(opt); (opt.CheckpointPath != "" || opt.ResumeFrom != "") && !Checkpointable(method) {
		switch {
		case method == MethodRace:
			return ctrl, cleanup, fmt.Errorf("driver: a race keeps heterogeneous per-strategy state and cannot checkpoint or resume; checkpoint a single-strategy method instead")
		case !slices.Contains(ValidMethods(), string(method)):
			return ctrl, cleanup, unknownMethod(method)
		default:
			var can []string
			for _, n := range ValidMethods() {
				if Checkpointable(Method(n)) {
					can = append(can, n)
				}
			}
			return ctrl, cleanup, fmt.Errorf("driver: method %q keeps no generation state; checkpoint/resume needs one of: %s", method, strings.Join(can, ", "))
		}
	}
	if opt.EvalTimeout > 0 || opt.Retries > 0 {
		if sc, ok := eval.(objective.SharedCacher); ok {
			guard := resilience.NewGuard(resilience.GuardConfig{
				EvalTimeout: opt.EvalTimeout,
				Retries:     opt.Retries,
				JitterSeed:  opt.Optimizer.Seed,
			})
			sc.SharedCache().WrapEvalFunc(guard.Middleware())
		}
	}
	if opt.OnProgress != nil {
		if sc, ok := eval.(objective.SharedCacher); ok {
			var done atomic.Int64
			fn := opt.OnProgress
			sc.SharedCache().AddObserver(func(skeleton.Config, []float64) {
				fn(int(done.Add(1)))
			})
		}
	}
	if opt.onEvaluation != nil {
		if sc, ok := eval.(objective.SharedCacher); ok {
			sc.SharedCache().AddObserver(func(skeleton.Config, []float64) { opt.onEvaluation() })
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
