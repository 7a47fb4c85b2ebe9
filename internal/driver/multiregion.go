package driver

import (
	"fmt"

	"autotune/internal/kernels"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
)

// MultiOutput is the result of tuning several regions simultaneously.
type MultiOutput struct {
	// Outputs holds one per-region result (kernel, region, unit).
	Outputs []*Output
	// Executions is the number of joint program executions — shared
	// across all regions, the point of simultaneous tuning.
	Executions int
	// Iterations is the number of lock-step optimizer iterations.
	Iterations int
}

// TuneKernels tunes several regions (one per named kernel, as if they
// were regions of one program) simultaneously: every program execution
// measures one candidate configuration of every region, so the total
// execution count is shared rather than multiplied (paper §III-A).
// Only the simulated evaluator supports joint execution.
func TuneKernels(kernelNames []string, opt Options) (*MultiOutput, error) {
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

// tuneJoint is the tail TuneKernels and TuneProgramAll share: one
// coupled simulated evaluator over all prepared regions, the lock-step
// multi-region RS-GDE3 (GDE3 under MethodGDE3), and one emitted unit
// per region.
func tuneJoint(ps []*prepared, opt Options) (*MultiOutput, error) {
	if err := CheckOptions(opt, true); err != nil {
		return nil, err
	}
	var (
		ks     = make([]*kernels.Kernel, len(ps))
		ns     = make([]int64, len(ps))
		spaces = make([]skeleton.Space, len(ps))
	)
	for r, p := range ps {
		ks[r], ns[r], spaces[r] = p.kernel, p.n, p.region.Skeleton.Space
	}
	eval, err := objective.NewSimJoint(opt.Machine, ks, ns, opt.NoiseAmp)
	if err != nil {
		return nil, err
	}
	sopt := opt.Optimizer
	sopt.DisableRoughSet = sopt.DisableRoughSet || effectiveMethod(opt) == MethodGDE3
	multi, err := optimizer.MultiRSGDE3(spaces, eval, sopt)
	if err != nil {
		return nil, err
	}
	out := &MultiOutput{Executions: multi.Executions, Iterations: multi.Iterations}
	for r, p := range ps {
		if len(multi.Regions[r].Front) == 0 {
			return nil, fmt.Errorf("driver: empty front for region %s", p.kernel.Name)
		}
		o, err := p.output(multi.Regions[r], eval.ObjectiveNames())
		if err != nil {
			return nil, err
		}
		out.Outputs = append(out.Outputs, o)
	}
	return out, nil
}
