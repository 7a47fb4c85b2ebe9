// Package objective defines the multi-objective evaluation layer: the
// objective function f: C -> R^m of the paper's §III-B, mapping a
// configuration (tile sizes + thread count) to a vector of minimized
// objective values.
//
// Two evaluator implementations are provided: a simulated evaluator
// backed by the analytical performance model (the reproducible path
// used by the paper-replication experiments) and a measured evaluator
// that runs the real goroutine-parallel kernels and times them.
// Both take medians over repetitions, cache evaluated configurations,
// deduplicate configurations that concurrent batches share, and count
// evaluations — the E metric of Table VI. Evaluation functions that can
// block run on a batch's workers (the paper's compiler evaluates
// configurations concurrently); the simulated one runs in the caller.
package objective

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/perfmodel"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// Evaluator evaluates configurations against m >= 2 objectives, all
// minimized.
type Evaluator interface {
	// Evaluate returns one objective vector per configuration, in
	// order. A nil vector marks a failed evaluation (invalid
	// configuration). A vector with a NaN component never enters the
	// front. The configurations handed in, and the slice holding them,
	// are valid only for the call: the evolutionary searches draw a
	// generation's offspring into memory they rewrite the next
	// generation, so an implementation that keeps a configuration
	// copies it.
	Evaluate(cfgs []skeleton.Config) [][]float64
	// ObjectiveNames returns the objective labels, e.g.
	// ["time", "resources"].
	ObjectiveNames() []string
	// Evaluations returns the number of distinct configurations
	// successfully evaluated so far — the E metric of Table VI.
	// Cache hits do not count twice, and failed evaluations
	// (invalid configurations) do not count at all.
	Evaluations() int
}

// GenerationSyncer is implemented by evaluator layers that maintain
// per-generation state — the surrogate screen folds the evaluations
// observed during a generation into its model here. The search engines
// call SyncGeneration at deterministic generation barriers (after the
// initial populations and after every completed generation or racing
// round), never concurrently with Evaluate, so the layer can mutate
// shared state in a canonical order regardless of GOMAXPROCS.
type GenerationSyncer interface {
	SyncGeneration()
}

// ObjectiveKind selects an objective for the simulated evaluator.
type ObjectiveKind int

const (
	// TimeObjective is the predicted execution time in seconds.
	TimeObjective ObjectiveKind = iota
	// ResourceObjective is threads × time — the minimized counterpart
	// of parallel efficiency (paper Fig. 8's "resource usage").
	ResourceObjective
	// EnergyObjective is the modeled energy in joules (extension).
	EnergyObjective
)

// String returns the objective label.
func (o ObjectiveKind) String() string {
	switch o {
	case TimeObjective:
		return "time"
	case ResourceObjective:
		return "resources"
	case EnergyObjective:
		return "energy"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(o))
	}
}

// SimConfig configures a simulated evaluator.
type SimConfig struct {
	Machine *machine.Machine
	Kernel  *kernels.Kernel
	// N is the problem size; 0 uses the kernel's DefaultN.
	N int64
	// NoiseAmp is the relative measurement-noise amplitude (e.g.
	// 0.01); 0 disables noise.
	NoiseAmp float64
	// Objectives defaults to [TimeObjective, ResourceObjective].
	Objectives []ObjectiveKind
	// UnrollDim extends the configuration layout with a trailing
	// innermost-loop unroll factor: [tiles..., threads, unroll].
	UnrollDim bool
}

// defaultReps is how many repeated "measurements" an evaluator takes
// the median of: the simulated one whenever it has noise (without, one
// model pass is exact), the measured one unless asked for another
// count.
const defaultReps = 3

// Sim is the simulated evaluator: the analytical performance model
// wrapped in the shared CachingEvaluator (memoization + singleflight
// dedup). A model pass cannot block and costs well under a microsecond,
// less than handing it to another goroutine would, so a Sim evaluates a
// batch in the calling goroutine.
type Sim struct {
	*CachingEvaluator
	cfg     SimConfig
	model   *perfmodel.Model
	problem perfmodel.Problem

	// modeled counts raw model evaluations (including failed ones);
	// it differs from evals exactly when dedup or failure accounting
	// kicks in, which is what the tests observe.
	modeled atomic.Int64
}

// NewSim builds a simulated evaluator. The configuration layout is
// [tile_1 ... tile_d, threads]. An objective kind the model has no
// formula for is refused by name.
func NewSim(cfg SimConfig) (*Sim, error) {
	if cfg.Machine == nil || cfg.Kernel == nil {
		return nil, fmt.Errorf("objective: machine and kernel required")
	}
	if cfg.N == 0 {
		cfg.N = cfg.Kernel.DefaultN
	}
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = []ObjectiveKind{TimeObjective, ResourceObjective}
	}
	// Validated here, once, so the per-evaluation model pass need not.
	if err := cfg.Kernel.Model.Validate(); err != nil {
		return nil, err
	}
	mo := perfmodel.New(cfg.Machine)
	mo.NoiseAmp = cfg.NoiseAmp
	names := make([]string, len(cfg.Objectives))
	for i, o := range cfg.Objectives {
		if o < TimeObjective || o > EnergyObjective {
			return nil, fmt.Errorf("objective: no model for objective %v", o)
		}
		names[i] = o.String()
	}
	s := &Sim{cfg: cfg, model: mo, problem: mo.Problem(cfg.Kernel.Model, cfg.N)}
	s.CachingEvaluator = newInlineEvaluator(names, s.evaluate)
	return s, nil
}

// evaluate appends the objective vector of cfg to dst; nil marks an
// invalid configuration.
func (s *Sim) evaluate(_ context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
	s.modeled.Add(1)
	d := s.cfg.Kernel.TileDims
	want := d + 1
	if s.cfg.UnrollDim {
		want++
	}
	if len(cfg) != want {
		return nil, nil
	}
	threads := int(cfg[d])
	unroll := int64(1)
	if s.cfg.UnrollDim {
		unroll = cfg[d+1]
	}
	reps := defaultReps
	if s.cfg.NoiseAmp == 0 {
		reps = 1
	}
	var scratch [defaultReps]float64
	times := scratch[:reps]
	// One model pass for all repetitions; the model reads the tile sizes
	// straight out of the configuration (kernel models are pure).
	if err := s.problem.Repetitions(cfg[:d:d], threads, unroll, times); err != nil {
		return nil, nil
	}
	med := stats.MustMedianInPlace(times)
	for _, o := range s.cfg.Objectives {
		switch o {
		case TimeObjective:
			dst = append(dst, med)
		case ResourceObjective:
			dst = append(dst, perfmodel.Resources(med, threads))
		case EnergyObjective:
			dst = append(dst, s.model.Energy(med, threads))
		}
	}
	return dst, nil
}

// Measured evaluates configurations by executing the kernel's real Go
// implementation and timing it. It shares the CachingEvaluator
// infrastructure with Sim, on workers at parallelism 1: a timed run
// blocks the goroutine that makes it, concurrent timed runs
// would perturb each other, and the global semaphore keeps them
// serialized even when several optimizer islands evaluate batches
// concurrently — while cache hits and in-flight dedup still let every
// island benefit from every other island's measurements.
type Measured struct {
	*CachingEvaluator
	kernel *kernels.Kernel
	n      int64
	reps   int
}

// NewMeasured builds a measured evaluator timing EffectiveReps(reps)
// runs of each configuration. n == 0 uses the kernel's BenchN (a size
// small enough for interactive tuning). Objectives are fixed to [time,
// resources].
func NewMeasured(k *kernels.Kernel, n int64, reps int) (*Measured, error) {
	if k == nil {
		return nil, fmt.Errorf("objective: kernel required")
	}
	if n == 0 {
		n = k.BenchN
	}
	m := &Measured{kernel: k, n: n, reps: EffectiveReps(reps)}
	m.CachingEvaluator = newCachingEvaluator([]string{"time", "resources"}, 1, m.evaluate)
	return m, nil
}

// EffectiveReps is how many runs the measured evaluator times when
// asked for reps: reps, or 3 when reps is not positive.
func EffectiveReps(reps int) int {
	if reps <= 0 {
		return defaultReps
	}
	return reps
}

// evaluate appends the objective vector of cfg to dst; nil marks an
// invalid configuration or a failed run.
func (m *Measured) evaluate(_ context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
	d := m.kernel.TileDims
	if len(cfg) != d+1 {
		return nil, nil
	}
	threads := int(cfg[d])
	var scratch [defaultReps]float64
	times := scratch[:0]
	if m.reps > defaultReps {
		times = make([]float64, 0, m.reps)
	}
	for r := 0; r < m.reps; r++ {
		start := time.Now()
		// The runners only read the tile sizes.
		if _, err := m.kernel.Run(m.n, cfg[:d:d], threads); err != nil {
			return nil, nil
		}
		times = append(times, time.Since(start).Seconds())
	}
	med := stats.MustMedianInPlace(times)
	return append(dst, med, perfmodel.Resources(med, threads)), nil
}
