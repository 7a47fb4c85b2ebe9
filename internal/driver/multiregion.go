package driver

import (
	"fmt"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
)

// TuneKernels tunes several regions (one per named kernel, as if they
// were regions of one program) simultaneously: every program execution
// measures one candidate configuration of every region, so the total
// execution count is shared rather than multiplied (paper §III-A):
// every output's Result carries the joint execution and iteration
// counts.
// CheckOptions with joint set lists what the joint search refuses;
// Measured is one, since kernels timed one by one share no execution.
func TuneKernels(kernelNames []string, opt Options) ([]*Output, error) {
	if len(kernelNames) == 0 {
		return nil, fmt.Errorf("driver: no kernels")
	}
	ps := make([]*prepared, len(kernelNames))
	for i, name := range kernelNames {
		var err error
		if ps[i], err = prepareKernel(name, opt); err != nil {
			return nil, err
		}
	}
	return tuneJoint(ps, opt)
}

// tuneJoint is the tail TuneKernels and TuneProgramAll share: every
// prepared region gets the evaluator chain a single-region search of it
// would get, the lock-step multi-region RS-GDE3 (GDE3 under MethodGDE3)
// runs over them, and one output is emitted per region. A region's
// stored front records the joint execution count as its Evaluations.
func tuneJoint(ps []*prepared, opt Options) ([]*Output, error) {
	if err := CheckOptions(opt, true); err != nil {
		return nil, err
	}
	spaces := make([]skeleton.Space, len(ps))
	chains := make([]*chain, len(ps))
	evals := make([]objective.Evaluator, len(ps))
	for r, p := range ps {
		c, err := newChain(p, opt)
		if err != nil {
			return nil, err
		}
		defer c.close()
		spaces[r], chains[r], evals[r] = p.region.Skeleton.Space, c, c.eval
	}
	sopt := opt.Optimizer
	sopt.DisableRoughSet = sopt.DisableRoughSet || effectiveMethod(opt) == MethodGDE3
	results, err := optimizer.MultiRSGDE3(opt.Context, spaces, evals, sopt)
	if err != nil {
		return nil, err
	}
	out := make([]*Output, len(ps))
	for r, p := range ps {
		if len(results[r].Front) == 0 {
			return nil, emptyFront(p, results[r])
		}
		if err := chains[r].finish(results[r]); err != nil {
			return nil, err
		}
		if out[r], err = p.output(results[r], evals[r].ObjectiveNames()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
