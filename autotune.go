// Package autotune is the public API of the multi-objective
// auto-tuning framework for parallel codes — a reproduction of Jordan
// et al., "A Multi-Objective Auto-Tuning Framework for Parallel Codes"
// (SC 2012).
//
// The framework tunes parallel loop nests for several conflicting
// objectives at once (execution time, parallel efficiency/resource
// usage, optionally energy). Its static optimizer, RS-GDE3, combines
// Generalized Differential Evolution 3 with a Rough-Set-based
// search-space reduction and returns a Pareto set of configurations;
// the multi-versioning backend packages one specialized code version
// per Pareto point into a Unit whose version is chosen at run time by
// a configurable policy.
//
// Quick start:
//
//	res, err := autotune.Tune("mm", autotune.WithMachine("Westmere"))
//	// res.Unit holds the Pareto-optimal versions with metadata.
//	rt, err := autotune.NewRuntime(res.Unit, autotune.WeightedSum{Weights: []float64{1, 1}})
//	rt.Invoke() // selects and executes a version
//
// Six benchmark kernels are built in (the paper's mm, dsyrk,
// jacobi-2d, 3d-stencil and n-body plus a 2mm extension), each
// available both as an analytical performance-model target
// (deterministic, fast — the paper-replication path) and as a real
// goroutine-parallel implementation for measured tuning. Custom search
// problems plug in through Optimize (any parameter Space and
// Evaluator); arbitrary loop nests plug in through TuneSource (a text
// program format with an automatically derived model); several regions
// tune simultaneously through TuneAll.
package autotune

import (
	"context"
	"fmt"
	"time"

	"autotune/internal/codegen"
	"autotune/internal/driver"
	"autotune/internal/irparse"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/multiversion"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/rts"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// Re-exported core types. The aliases make the internal packages'
// documented types part of the public surface without duplication.
type (
	// Machine describes a tuning target system.
	Machine = machine.Machine
	// Unit is a multi-versioned compilation result: one code version
	// per Pareto point plus selection metadata.
	Unit = multiversion.Unit
	// Version is one specialized code version within a Unit.
	Version = multiversion.Version
	// Meta is the per-version trade-off metadata.
	Meta = multiversion.Meta
	// Entry is an executable version entry point.
	Entry = multiversion.Entry
	// Space is an integer parameter search space.
	Space = skeleton.Space
	// Param is one tunable dimension of a Space.
	Param = skeleton.Param
	// Config assigns a value to every Space parameter.
	Config = skeleton.Config
	// Evaluator maps configurations to minimized objective vectors.
	Evaluator = objective.Evaluator
	// Point couples a configuration with its objective vector.
	Point = pareto.Point
	// OptimizerOptions tunes the evolutionary search (population size,
	// CR, F, stagnation window, seed).
	OptimizerOptions = optimizer.Options
	// OptimizerResult is the outcome of a search.
	OptimizerResult = optimizer.Result
	// IslandOptions configures the island-model parallel search
	// (worker-island count, migration interval, migrant count).
	IslandOptions = optimizer.IslandOptions
	// Runtime dispatches invocations of a multi-versioned unit.
	Runtime = rts.Runtime
	// Policy ranks the versions to execute; Invoke runs the first and
	// falls back down the rest.
	Policy = rts.Policy
	// WeightedSum ranks by a user-weighted sum over normalized
	// objectives (the paper's runtime policy).
	WeightedSum = rts.WeightedSum
	// FastestWithinBudget ranks the versions within a budget on the
	// `Constrain` objective first, by their `Optimize` objective.
	FastestWithinBudget = rts.FastestWithinBudget
	// FixedPolicy pins one version.
	FixedPolicy = rts.Fixed
	// AdaptivePolicy refines version selection with measured
	// execution times (epsilon-greedy feedback).
	AdaptivePolicy = rts.Adaptive
	// RuntimeContext carries dynamic conditions (available cores).
	RuntimeContext = rts.Context
	// FaultInjector injects deterministic errors and latency spikes
	// into version entries, for testing the fault-tolerance layer.
	FaultInjector = rts.FaultInjector
	// HealthConfig tunes the per-version quarantine circuit breaker.
	HealthConfig = rts.HealthConfig
	// VersionHealth snapshots one version's circuit-breaker state.
	VersionHealth = rts.VersionHealth
	// RuntimeEvent is a structured trace record of the runtime's
	// fault handling (failure, fallback, quarantine, readmit).
	RuntimeEvent = rts.Event
	// RuntimeEventType classifies RuntimeEvents.
	RuntimeEventType = rts.EventType
	// TuningDB is the persistent tuning database: a durable store of
	// evaluation results and Pareto fronts keyed by (program, machine,
	// objectives, search space). Open one with OpenDB and pass it to
	// Tune via WithDB.
	TuningDB = tunedb.DB
	// TuningKey identifies one tuning problem in a TuningDB.
	TuningKey = tunedb.Key
	// StoredFront is a Pareto front stored in a TuningDB.
	StoredFront = tunedb.FrontRecord
	// MachineSignature summarizes a machine's resource geometry for
	// database keying and nearest-machine transfer.
	MachineSignature = machine.Signature
)

// OpenDB opens (creating if necessary) a persistent tuning database in
// dir, recovering automatically from a torn journal tail. Close it
// when done.
func OpenDB(dir string) (*TuningDB, error) { return tunedb.Open(dir) }

// InvokeTimed runs one invocation through the runtime and feeds the
// measured wall time back into the adaptive policy.
func InvokeTimed(rt *Runtime, a *AdaptivePolicy) (int, float64, error) {
	return rts.InvokeTimed(rt, a)
}

// Method names a search strategy.
type Method = driver.Method

// Search strategies accepted by WithMethod.
const (
	// RSGDE3 is the paper's contribution: GDE3 + rough-set reduction.
	RSGDE3 = driver.MethodRSGDE3
	// GDE3 disables the rough-set reduction (ablation).
	GDE3 = driver.MethodGDE3
	// NSGA2 is the classic genetic-algorithm baseline.
	NSGA2 = driver.MethodNSGA2
	// MOTPE is the multi-objective Tree-structured Parzen Estimator
	// sampler (cheap Bayesian strategy).
	MOTPE = driver.MethodMOTPE
	// RandomSearch is the random baseline.
	RandomSearch = driver.MethodRandom
	// GridSearch sweeps a deterministic coarse grid subsample of the
	// space in a low-discrepancy order, capped by WithRandomBudget —
	// the systematic counterpart of RandomSearch, and a contender the
	// race can include.
	GridSearch = driver.MethodGrid
	// BruteForce exhaustively sweeps a regular grid (WithGridPoints);
	// it never races and refuses the surrogate screen.
	BruteForce = driver.MethodBruteForce
	// MethodRace races several strategies concurrently over one shared
	// evaluation cache, reallocating budget toward the leaders every
	// scoring interval (see WithRace).
	MethodRace = driver.MethodRace
)

// RaceOptions configures MethodRace (see WithRace).
type RaceOptions = driver.RaceOptions

// Methods lists every search method accepted by WithMethod, sorted.
func Methods() []string { return driver.ValidMethods() }

// Strategies lists the valid contender names for
// RaceOptions.Strategies, sorted: every registered strategy but the
// exhaustive sweep — what an empty RaceOptions.Strategies races.
func Strategies() []string {
	race, _ := optimizer.RaceOptions{}.Resolve() // the defaults always resolve
	return race.Strategies
}

// Westmere returns the simulated 4-socket Intel system of the paper's
// Table I (40 cores, 30 MB shared L3 per socket).
func Westmere() *Machine { return machine.Westmere() }

// Barcelona returns the simulated 8-socket AMD system of the paper's
// Table I (32 cores, 2 MB shared L3 per socket).
func Barcelona() *Machine { return machine.Barcelona() }

// MachineByName resolves "Westmere" or "Barcelona".
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// Kernels lists the built-in benchmark kernels.
func Kernels() []string { return kernels.Names() }

// TuneResult is the outcome of tuning one kernel.
type TuneResult struct {
	// Unit is the emitted multi-versioned unit (one version per
	// Pareto point, sorted by the first objective).
	Unit *Unit
	// Front is the raw Pareto set.
	Front []Point
	// Evaluations is the number of configurations evaluated (the
	// paper's E metric).
	Evaluations int
	// Iterations is the number of optimizer iterations.
	Iterations int
	// Partial reports that the search was interrupted (context
	// cancelled or deadline exceeded) and the front is the best
	// mutually non-dominated set found so far rather than the final
	// one. Resume an interrupted checkpointed search with WithResume.
	Partial bool

	output *driver.Output // retained for code emission
}

// newTuneResult reports one driver output.
func newTuneResult(out *driver.Output) *TuneResult {
	return &TuneResult{
		Unit:        out.Unit,
		Front:       out.Result.Front,
		Evaluations: out.Result.Evaluations,
		Iterations:  out.Result.Iterations,
		Partial:     out.Result.Partial,
		output:      out,
	}
}

// EmitC renders the tuned region as a complete multi-versioned
// C/OpenMP translation unit: one specialized function per Pareto
// point, the version table as static data, and a dispatch function.
// funcName is the base name of the generated functions (default
// "kernel"). It lowers the transformed programs the unit was emitted
// from, so it applies no skeleton.
func (r *TuneResult) EmitC(funcName string) (string, error) {
	if r.output == nil {
		return "", fmt.Errorf("autotune: result carries no region information")
	}
	return codegen.EmitUnit(r.Unit, r.output.Programs, funcName)
}

type tuneConfig struct {
	opts driver.Options
}

// Option customizes Tune.
type Option func(*tuneConfig) error

// driverOptions applies the options over the defaults (Westmere,
// RS-GDE3).
func driverOptions(options []Option) (driver.Options, error) {
	c := tuneConfig{}
	for _, o := range options {
		if err := o(&c); err != nil {
			return driver.Options{}, err
		}
	}
	if c.opts.Machine == nil {
		c.opts.Machine = machine.Westmere()
	}
	return c.opts, nil
}

// WithMachine selects a predefined target machine by name.
func WithMachine(name string) Option {
	return func(c *tuneConfig) error {
		m, err := machine.ByName(name)
		if err != nil {
			return err
		}
		c.opts.Machine = m
		return nil
	}
}

// WithMachineSpec selects a custom target machine.
func WithMachineSpec(m *Machine) Option {
	return func(c *tuneConfig) error {
		if err := m.Validate(); err != nil {
			return err
		}
		c.opts.Machine = m
		return nil
	}
}

// WithMethod selects the search strategy (default RSGDE3).
func WithMethod(m Method) Option {
	return func(c *tuneConfig) error {
		c.opts.Method = m
		return nil
	}
}

// WithSeed fixes the random seed of stochastic strategies.
func WithSeed(seed int64) Option {
	return func(c *tuneConfig) error {
		c.opts.Optimizer.Seed = seed
		return nil
	}
}

// WithIslands runs the evolutionary search methods as `islands`
// parallel islands over one shared, deduplicating evaluation cache:
// each island evolves an independently seeded sub-population and
// donates elite individuals to its ring successor every
// `migrationInterval` generations (0 picks the default of 5). Results
// merge into a single Pareto front. The search is deterministic for a
// fixed (seed, islands, migrationInterval) regardless of GOMAXPROCS.
// islands <= 1 selects the serial algorithm.
func WithIslands(islands, migrationInterval int) Option {
	return func(c *tuneConfig) error {
		c.opts.Islands = islands
		c.opts.MigrationInterval = migrationInterval
		return nil
	}
}

// WithDB journals every evaluation and the final Pareto front of the
// tuning run into the persistent tuning database, keyed by (program
// fingerprint, machine signature, objective set, search-space hash).
// Combine with WithWarmStart to also reuse stored results.
func WithDB(db *TuningDB) Option {
	return func(c *tuneConfig) error {
		if db == nil {
			return fmt.Errorf("autotune: nil tuning database")
		}
		c.opts.DB = db
		return nil
	}
}

// WithWarmStart makes the search start from the database instead of
// from scratch: the evaluation cache is primed with every stored
// result for the exact key — repeated or overlapping searches pay only
// for new configurations, and the reported Evaluations count only
// those — and the initial population is seeded from the stored Pareto
// front (the exact key's, or the nearest-machine-signature
// transferable one). Requires WithDB.
func WithWarmStart() Option {
	return func(c *tuneConfig) error {
		c.opts.WarmStart = true
		return nil
	}
}

// WithOptimizerOptions overrides all evolutionary-search parameters.
func WithOptimizerOptions(o OptimizerOptions) Option {
	return func(c *tuneConfig) error {
		c.opts.Optimizer = o
		return nil
	}
}

// WithProblemSize overrides the kernel's default problem size.
func WithProblemSize(n int64) Option {
	return func(c *tuneConfig) error {
		if n < 1 {
			return fmt.Errorf("autotune: problem size must be positive")
		}
		c.opts.N = n
		return nil
	}
}

// WithNoise adds deterministic pseudo measurement noise of the given
// relative amplitude to the simulated evaluator (medians over
// repetitions are taken automatically).
func WithNoise(amp float64) Option {
	return func(c *tuneConfig) error {
		c.opts.NoiseAmp = amp
		return nil
	}
}

// WithEnergyObjective tunes for three objectives: time, resources and
// modeled energy.
func WithEnergyObjective() Option {
	return func(c *tuneConfig) error {
		c.opts.Objectives = []objective.ObjectiveKind{
			objective.TimeObjective,
			objective.ResourceObjective,
			objective.EnergyObjective,
		}
		return nil
	}
}

// WithMeasuredExecution switches from the analytical performance model
// to timing the real goroutine-parallel kernel implementations. Use
// small problem sizes; every candidate configuration is executed.
func WithMeasuredExecution(reps int) Option {
	return func(c *tuneConfig) error {
		c.opts.Measured = true
		c.opts.MeasuredReps = reps
		return nil
	}
}

// WithUnrollDimension adds the innermost-loop unroll factor (1..8) as
// one more tuning dimension (simulated evaluation only). Emitted code
// carries the chosen factor as an unroll pragma.
func WithUnrollDimension() Option {
	return func(c *tuneConfig) error {
		c.opts.UnrollDim = true
		return nil
	}
}

// WithContext bounds the search with ctx: once it is cancelled or its
// deadline passes, the search stops gracefully at the next evaluation
// or generation boundary and returns the best-so-far front with
// TuneResult.Partial set — never an error with nothing (unless nothing
// at all was evaluated yet).
func WithContext(ctx context.Context) Option {
	return func(c *tuneConfig) error {
		if ctx == nil {
			return fmt.Errorf("autotune: nil context")
		}
		c.opts.Context = ctx
		return nil
	}
}

// WithEvalTimeout watchdogs every configuration evaluation: one that
// exceeds d is abandoned and recorded as a failed configuration (never
// retried, excluded from the Pareto set and from Evaluations), so a
// hung or pathologically slow variant cannot stall the whole search.
func WithEvalTimeout(d time.Duration) Option {
	return func(c *tuneConfig) error {
		if d <= 0 {
			return fmt.Errorf("autotune: evaluation timeout must be positive")
		}
		c.opts.EvalTimeout = d
		return nil
	}
}

// WithCheckpoint journals a crash-safe snapshot of the search to path
// after every completed generation (evolutionary methods only). An
// interrupted run — cancelled context, SIGINT, crash — resumes from
// the journal with WithResume and finishes with a front byte-identical
// to the same-seed uninterrupted run.
func WithCheckpoint(path string) Option {
	return func(c *tuneConfig) error {
		if path == "" {
			return fmt.Errorf("autotune: empty checkpoint path")
		}
		c.opts.CheckpointPath = path
		return nil
	}
}

// WithResume resumes an interrupted search from the checkpoint journal
// at path (and keeps checkpointing into it). All other options must
// match the interrupted run's; a mismatch is detected and reported.
func WithResume(path string) Option {
	return func(c *tuneConfig) error {
		if path == "" {
			return fmt.Errorf("autotune: empty checkpoint path")
		}
		c.opts.ResumeFrom = path
		return nil
	}
}

// WithRace selects MethodRace and configures it: the named strategies
// (empty = every one Strategies lists) run concurrently over one shared
// evaluation cache, are scored every `opts.Interval` generations on
// hypervolume per evaluation against a shared reference point, and the
// trailing half is eliminated so the remaining budget flows to the
// leaders. `opts.Budget` caps the race's total distinct successful
// evaluations. Warm starts seed every contender; cancellation returns
// the merged best-so-far front flagged Partial; a fixed seed yields a
// byte-identical merged front regardless of GOMAXPROCS. Tune refuses a
// race the optimizer could not run — fewer than two contenders, one
// named twice or unknown, a negative interval or budget — before it
// searches.
func WithRace(opts RaceOptions) Option {
	return func(c *tuneConfig) error {
		c.opts.Method = MethodRace
		c.opts.Race = opts
		return nil
	}
}

// WithSurrogate layers surrogate-assisted pre-screening over the
// evaluator: an online multi-output regression model trains
// incrementally from every real evaluation (and from every stored
// record a warm start primes) and pre-screens each generation's
// candidates, sending only the topK most promising new configurations
// — by predicted Pareto rank plus an uncertainty bonus that keeps
// exploration alive — to the real evaluator. The rest are skipped
// without costing Evaluations. topK = 0 picks an automatic quarter of
// each batch; topK at or above the population size makes the screen an
// exact pass-through. Works with every method except BruteForce.
// Fixed-seed fronts stay byte-identical across GOMAXPROCS.
func WithSurrogate(topK int) Option {
	return func(c *tuneConfig) error {
		c.opts.Surrogate = true
		c.opts.ScreenTopK = topK
		return nil
	}
}

// WithProgress registers a live-progress callback: fn fires once per
// evaluated batch — a generation, for the evolutionary methods — that
// produced fresh (non-warm-started) results, with the cumulative count
// of evaluations completed so far. Concurrent islands call it
// concurrently, so counts may arrive out of order, and the search
// waits for it to return; the tuning-as-a-service front-end uses it
// to stream search progress to clients.
func WithProgress(fn func(evaluations int)) Option {
	return func(c *tuneConfig) error {
		if fn == nil {
			return fmt.Errorf("autotune: nil progress callback")
		}
		c.opts.OnProgress = fn
		return nil
	}
}

// WithRandomBudget sets the evaluation budget of RandomSearch and
// GridSearch.
func WithRandomBudget(budget int) Option {
	return func(c *tuneConfig) error {
		if budget < 1 {
			return fmt.Errorf("autotune: random budget must be positive")
		}
		c.opts.RandomBudget = budget
		return nil
	}
}

// WithGridPoints sets the per-dimension point counts of BruteForce.
func WithGridPoints(points []int) Option {
	return func(c *tuneConfig) error {
		c.opts.GridPoints = points
		return nil
	}
}

// Tune runs the full compiler pipeline (analyze → optimize →
// multi-version) for one built-in kernel. The default machine is
// Westmere and the default method RS-GDE3.
func Tune(kernel string, options ...Option) (*TuneResult, error) {
	opts, err := driverOptions(options)
	if err != nil {
		return nil, err
	}
	out, err := driver.TuneKernel(kernel, opts)
	if err != nil {
		return nil, err
	}
	return newTuneResult(out), nil
}

// TuneSource parses a program in the MiniIR text format (see
// internal/irparse for the grammar) and tunes its first region with an
// automatically derived performance model. The resulting unit carries
// code listings and trade-off metadata but no executable entries —
// bind them with Unit.Bind when an execution vehicle exists.
//
// Example source:
//
//	program mm
//	array A[256][256] elem 8
//	array B[256][256] elem 8
//	array C[256][256] elem 8
//	for i = 0..256 { for j = 0..256 { for k = 0..256 {
//	  C[i][j] = f(C[i][j], A[i][k], B[k][j]) flops 2
//	}}}
func TuneSource(src string, options ...Option) (*TuneResult, error) {
	opts, err := driverOptions(options)
	if err != nil {
		return nil, err
	}
	prog, err := irparse.Parse(src)
	if err != nil {
		return nil, err
	}
	out, err := driver.TuneProgram(prog, opts)
	if err != nil {
		return nil, err
	}
	return newTuneResult(out), nil
}

// TuneAll tunes several regions (one per named kernel) simultaneously:
// every program execution measures one candidate configuration of
// every region, so the execution budget is shared across regions
// instead of multiplied (paper §III-A). The returned slice holds one
// TuneResult per kernel; all share the same Evaluations count (the
// joint execution total).
//
// Each region runs RS-GDE3 (or GDE3) in lock-step over the evaluator
// chain a Tune of it would build. The machine, seed, problem size,
// noise, optimizer options, WithEnergyObjective, WithUnrollDimension,
// WithDB (each region journals and stores its front under the key a
// Tune of it would use; the front's Evaluations is the joint execution
// count), WithEvalTimeout and WithContext (a cancelled search stops at
// a generation boundary, every result Partial) are honoured. Every
// other option a Tune would honour is refused by name rather than
// dropped, with the reason: another method, measured execution, the
// surrogate screen, islands, an InitialPopulation, a warm start (its
// seeds address one region's space), checkpoints and progress (a joint
// run's E counts program executions, not evaluations).
func TuneAll(kernelNames []string, options ...Option) ([]*TuneResult, error) {
	opts, err := driverOptions(options)
	if err != nil {
		return nil, err
	}
	multi, err := driver.TuneKernels(kernelNames, opts)
	if err != nil {
		return nil, err
	}
	return newTuneResults(multi), nil
}

// TuneSourceAll is TuneAll for a program in the MiniIR text format:
// every tunable region of the parsed program — not only the first, as
// in TuneSource — is tuned simultaneously, each against a performance
// model derived from its own access structure, with every program
// execution shared by all regions (paper §III-A). The returned slice
// holds one TuneResult per region, in program order; it honours and
// refuses the options TuneAll does.
func TuneSourceAll(src string, options ...Option) ([]*TuneResult, error) {
	opts, err := driverOptions(options)
	if err != nil {
		return nil, err
	}
	prog, err := irparse.Parse(src)
	if err != nil {
		return nil, err
	}
	multi, err := driver.TuneProgramAll(prog, opts)
	if err != nil {
		return nil, err
	}
	return newTuneResults(multi), nil
}

func newTuneResults(multi []*driver.Output) []*TuneResult {
	out := make([]*TuneResult, len(multi))
	for i, o := range multi {
		out[i] = newTuneResult(o)
	}
	return out
}

// Optimize runs RS-GDE3 directly on a custom search problem: any
// integer parameter space and any evaluator. This is the extension
// point for tuning problems beyond the built-in kernels.
func Optimize(space Space, eval Evaluator, opt OptimizerOptions) (*OptimizerResult, error) {
	return optimize(space, eval, opt, nil, optimizer.Control{})
}

// OptimizeIslands runs RS-GDE3 as parallel islands over a custom
// search problem: independently seeded sub-populations evolve
// concurrently, share one evaluation cache, exchange elites over a
// migration ring, and merge into a single Pareto front. Deterministic
// for a fixed (seed, islands, migration interval).
func OptimizeIslands(space Space, eval Evaluator, opt OptimizerOptions, iopt IslandOptions) (*OptimizerResult, error) {
	return optimize(space, eval, opt, &iopt, optimizer.Control{})
}

// OptimizeWithContext is Optimize bounded by ctx: cancellation stops
// the search at the next generation boundary and returns the
// best-so-far front with OptimizerResult.Partial set.
func OptimizeWithContext(ctx context.Context, space Space, eval Evaluator, opt OptimizerOptions) (*OptimizerResult, error) {
	return optimize(space, eval, opt, nil, optimizer.Control{Ctx: ctx})
}

// OptimizeIslandsWithContext is OptimizeIslands bounded by ctx.
func OptimizeIslandsWithContext(ctx context.Context, space Space, eval Evaluator, opt OptimizerOptions, iopt IslandOptions) (*OptimizerResult, error) {
	return optimize(space, eval, opt, &iopt, optimizer.Control{Ctx: ctx})
}

// optimize is the four Optimize entry points: RS-GDE3 through the one
// search engine, serial or (iopt non-nil) as islands.
func optimize(space Space, eval Evaluator, opt OptimizerOptions, iopt *IslandOptions, ctrl optimizer.Control) (*OptimizerResult, error) {
	return optimizer.Run(space, eval, optimizer.Spec{
		Strategy: string(RSGDE3),
		Config:   optimizer.StrategyConfig{Options: opt},
		Islands:  iopt,
	}, ctrl)
}

// NewRuntime builds a runtime dispatcher for a unit whose versions
// have executable entries bound (units produced by Tune are ready;
// deserialized units need Unit.Bind first).
func NewRuntime(u *Unit, p Policy) (*Runtime, error) { return rts.New(u, p) }

// Runtime fault-handling event kinds, reported through
// Runtime.SetEventHook.
const (
	RuntimeEventFailure    = rts.EventFailure
	RuntimeEventFallback   = rts.EventFallback
	RuntimeEventQuarantine = rts.EventQuarantine
	RuntimeEventReadmit    = rts.EventReadmit
)

// Sentinel errors of the runtime fault-tolerance layer.
var (
	// ErrAllQuarantined is wrapped by Invoke when every ranked
	// version is sitting out a quarantine cool-down.
	ErrAllQuarantined = rts.ErrAllQuarantined
	// ErrInjected marks errors produced by a FaultInjector.
	ErrInjected = rts.ErrInjected
)

// DecodeUnit deserializes a unit produced by Unit.Encode. Entries are
// unbound; attach them with Unit.Bind.
func DecodeUnit(data []byte) (*Unit, error) { return multiversion.Decode(data) }
