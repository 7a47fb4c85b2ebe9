package driver

import (
	"fmt"

	"autotune/internal/analyzer"
	"autotune/internal/ir"
	"autotune/internal/kernels"
)

// analyzeProgram runs pipeline steps (1-2) for an arbitrary MiniIR
// program: the analyzer enumerates its tunable regions. Parsed programs
// have no executable Go implementation, so only the simulated
// evaluator applies.
func analyzeProgram(prog *ir.Program, opt Options) ([]analyzer.Region, error) {
	if prog == nil {
		return nil, fmt.Errorf("driver: nil program")
	}
	if opt.Machine == nil {
		return nil, fmt.Errorf("driver: machine required")
	}
	if opt.Measured {
		return nil, fmt.Errorf("driver: parsed programs have no measured implementation")
	}
	return analyzer.Analyze(prog, analyzer.Options{MaxThreads: opt.Machine.Cores()})
}

// prepareRegion derives an analytical performance model from the
// region's access structure and wraps it in a synthetic kernel, so the
// standard evaluator and backend apply unchanged. Like prepareKernel it
// extends the skeleton by the optional unroll dimension.
func prepareRegion(prog *ir.Program, region analyzer.Region, name string, opt Options) (*prepared, error) {
	km, err := deriveModel(prog, region)
	if err != nil {
		return nil, err
	}
	synth := &kernels.Kernel{
		Name:     name,
		DefaultN: 1,
		BenchN:   1,
		TileDims: region.Band,
		IR:       func(n int64) *ir.Program { return prog.Clone() },
		Model:    km,
	}
	if opt.UnrollDim {
		region.Skeleton = unrollSkeleton(region, opt.Machine)
	}
	return &prepared{kernel: synth, n: 1, prog: prog, region: region,
		salt: noiseSalt(opt, "source", region.Skeleton.Name, fmt.Sprint(opt.UnrollDim))}, nil
}

// TuneProgramAll tunes every region of an arbitrary MiniIR program
// simultaneously: the analyzer enumerates the tunable nests, deriveModel
// derives a performance model per region, and the lock-step
// multi-region RS-GDE3 shares each program execution across all
// regions (paper §III-A). One multi-versioned unit is emitted per
// region.
func TuneProgramAll(prog *ir.Program, opt Options) ([]*Output, error) {
	regions, err := analyzeProgram(prog, opt)
	if err != nil {
		return nil, err
	}
	ps := make([]*prepared, len(regions))
	for i, region := range regions {
		if ps[i], err = prepareRegion(prog, region, region.Skeleton.Name, opt); err != nil {
			return nil, fmt.Errorf("driver: region %d: %w", i, err)
		}
	}
	return tuneJoint(ps, opt)
}

// TuneProgram tunes an arbitrary MiniIR program (e.g. parsed from the
// text format by internal/irparse): the analyzer finds the first
// tunable region, deriveModel derives an analytical performance model
// from its access structure, and the usual optimize → multi-version
// pipeline runs against it. Since the program has no executable Go
// implementation, the emitted unit's versions carry code listings and
// metadata but no bound entries — attach entries with Unit.Bind when
// an execution vehicle exists.
func TuneProgram(prog *ir.Program, opt Options) (*Output, error) {
	regions, err := analyzeProgram(prog, opt)
	if err != nil {
		return nil, err
	}
	p, err := prepareRegion(prog, regions[0], prog.Name, opt)
	if err != nil {
		return nil, err
	}
	return tune(p, opt)
}
