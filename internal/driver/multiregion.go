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
// prepared region gets the evaluator a single-region search of it would
// get, the lock-step multi-region RS-GDE3 (GDE3 under MethodGDE3) runs
// over them, and one output is emitted per region.
func tuneJoint(ps []*prepared, opt Options) ([]*Output, error) {
	if err := CheckOptions(opt, true); err != nil {
		return nil, err
	}
	spaces := make([]skeleton.Space, len(ps))
	evals := make([]objective.Evaluator, len(ps))
	for r, p := range ps {
		spaces[r] = p.region.Skeleton.Space
		var err error
		if evals[r], err = p.evaluator(opt); err != nil {
			return nil, err
		}
	}
	sopt := opt.Optimizer
	sopt.DisableRoughSet = sopt.DisableRoughSet || effectiveMethod(opt) == MethodGDE3
	results, err := optimizer.MultiRSGDE3(spaces, evals, sopt)
	if err != nil {
		return nil, err
	}
	out := make([]*Output, 0, len(ps))
	for r, p := range ps {
		if len(results[r].Front) == 0 {
			return nil, fmt.Errorf("driver: empty front for region %s", p.kernel.Name)
		}
		o, err := p.output(results[r], evals[r].ObjectiveNames())
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}
