// Package driver implements the compiler driver orchestrating the
// paper's Fig. 3 workflow: load a program (1), analyze it into tunable
// regions with transformation skeletons (2), run the multi-objective
// optimizer evaluating configurations on the target (3-4), and emit a
// multi-versioned unit with one specialized code version per Pareto
// point plus runtime metadata (5). The runtime system (internal/rts)
// covers step (6).
package driver

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"autotune/internal/analyzer"
	"autotune/internal/features"
	"autotune/internal/ir"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/multiversion"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// Method selects the search strategy.
type Method string

// Search strategies.
const (
	MethodRSGDE3 Method = "rs-gde3"
	MethodGDE3   Method = "gde3"
	MethodNSGA2  Method = "nsga2"
	MethodMOTPE  Method = "motpe"
	MethodRandom Method = "random"
	// MethodGrid sweeps a deterministic coarse grid subsample of at
	// most RandomBudget configurations in a low-discrepancy order — the
	// systematic counterpart of MethodRandom.
	MethodGrid       Method = "grid"
	MethodBruteForce Method = "brute-force"
	// MethodRace races several registered strategies over one shared
	// evaluation cache and keeps reallocating budget toward the
	// leaders (see RaceOptions).
	MethodRace Method = "race"
)

// RaceOptions configures MethodRace.
type RaceOptions struct {
	// Strategies names the contenders (default: every registered
	// strategy that can race — gde3, grid, motpe, nsga2, random, rs-gde3;
	// brute force sweeps its whole grid and cannot).
	Strategies []string
	// Interval is the number of lockstep generations between scoring
	// and elimination rounds (default 5).
	Interval int
	// Budget caps the race's global distinct successful evaluations;
	// 0 races until every surviving strategy's stopping rule fires.
	Budget int
}

// Options configures one tuning run.
type Options struct {
	// Machine is the tuning target (required).
	Machine *machine.Machine
	// N overrides the kernel's default problem size when > 0.
	N int64
	// Method defaults to MethodRSGDE3.
	Method Method
	// Optimizer carries the evolutionary parameters.
	Optimizer optimizer.Options
	// Islands > 1 runs the evolutionary methods (rs-gde3, gde3, nsga2)
	// as that many parallel islands over a shared evaluation cache,
	// exchanging elites every MigrationInterval generations. 0 or 1
	// selects the serial algorithm.
	Islands int
	// MigrationInterval is the island-model migration period in
	// generations (default 5); ignored when Islands <= 1.
	MigrationInterval int
	// RandomBudget is the evaluation budget for MethodRandom
	// (default 1000). Negative values are a configuration error.
	RandomBudget int
	// Race configures MethodRace; ignored for other methods.
	Race RaceOptions
	// GridPoints is the per-dimension point count for
	// MethodBruteForce (default 12 per tile dim, all thread counts).
	GridPoints []int
	// Surrogate layers surrogate-assisted pre-screening over the
	// evaluator: an online regression model trains from every real
	// evaluation (and, with WarmStart, from every stored record the
	// database primes) and each generation only the most promising new
	// candidates reach the real evaluator — the rest are skipped
	// without costing E. Refused for an exhaustive method (brute
	// force), whose point is the sweep. Fixed-seed fronts stay
	// byte-identical across GOMAXPROCS; a resumed screened search may
	// legitimately differ from the uninterrupted run, because the model
	// retrains from the journaled history in one batch rather than
	// generation by generation.
	Surrogate bool
	// ScreenTopK caps how many new candidates per batch survive the
	// surrogate screen (0 = a quarter of the batch; >= PopSize makes
	// the screen an exact pass-through). Setting it implies Surrogate.
	ScreenTopK int
	// NoiseAmp adds deterministic measurement noise (see
	// objective.SimConfig).
	NoiseAmp float64
	// Objectives defaults to time + resources.
	Objectives []objective.ObjectiveKind
	// Measured switches the evaluator from the analytical model to
	// timed execution of the real Go kernels.
	Measured bool
	// MeasuredReps is the median-of-k repetition count for measured
	// tuning (default 3).
	MeasuredReps int
	// UnrollDim adds the innermost-loop unroll factor (1..8) as one
	// more tuning dimension (simulated evaluator only).
	UnrollDim bool
	// DB is the persistent tuning database. When set, every evaluation
	// and the final Pareto front are journaled under the search's key
	// (program fingerprint, machine signature, objectives, space hash).
	DB *tunedb.DB
	// WarmStart additionally reuses stored results before searching:
	// the evaluation cache is primed with every stored evaluation for
	// the exact key (so E counts only new evaluations), and the initial
	// population is seeded from the stored Pareto front — the exact
	// key's front, or the nearest-machine-signature transferable front.
	// Ignored when DB is nil.
	WarmStart bool
	// Context bounds the search with a deadline and/or cancel signal.
	// Once done, the search stops gracefully at the next evaluation or
	// generation boundary and the result carries the best-so-far front
	// with Partial set. Nil means never cancelled.
	Context context.Context
	// EvalTimeout watchdogs each configuration evaluation: one that
	// exceeds the timeout is abandoned and recorded as a failed
	// configuration, so a hung variant cannot stall the search. Zero
	// disables the watchdog.
	EvalTimeout time.Duration
	// CheckpointPath, when set, journals a crash-safe search snapshot
	// after every completed generation (evolutionary methods only).
	CheckpointPath string
	// ResumeFrom resumes an interrupted search from the checkpoint
	// journal at this path instead of starting fresh; the finished
	// run's front is byte-identical to the same-seed uninterrupted run.
	// The snapshot must come from an identically configured search; its
	// initial population, warm-start seeds included, is read from the
	// snapshot, so the stored front may have moved since.
	ResumeFrom string
	// OnProgress, when set, fires once per evaluated batch — a
	// generation, for the evolutionary methods — that produced fresh
	// (non-primed) results, after the batch has been journaled to DB,
	// with the cumulative count of evaluations completed so far in
	// this run: the live-progress feed a long-running service streams
	// to its clients. Concurrent batches (islands) call it
	// concurrently, so counts may arrive out of order; the search
	// waits for it to return.
	OnProgress func(evaluations int)
}

// Output is the result of tuning one kernel.
type Output struct {
	Result *optimizer.Result
	Unit   *multiversion.Unit
	// Programs holds each version's transformed program, in the order
	// of Unit.Versions: what the unit was emitted from, and what a C
	// rendering of it (TuneResult.EmitC) lowers.
	Programs []*ir.Program
}

// prepared is the analyzed form of a single-region tuning problem:
// everything steps (1-2) of the pipeline determine before any search
// runs. The tuning pipeline (tune) and the search-free ProblemKey both
// derive from it.
type prepared struct {
	kernel *kernels.Kernel
	n      int64
	prog   *ir.Program
	region analyzer.Region
	// salt is what the tuning-database fingerprint hashes beside the
	// program (kernel name, size, skeleton, evaluator switches, noise).
	salt []string
}

// prepareKernel runs pipeline steps (1-2): load the kernel's IR at the
// effective problem size and analyze it into the tunable region with
// its transformation skeleton (including the optional unroll
// dimension).
func prepareKernel(kernelName string, opt Options) (*prepared, error) {
	k, err := kernels.ByName(kernelName)
	if err != nil {
		return nil, err
	}
	if opt.Machine == nil {
		return nil, fmt.Errorf("driver: machine required")
	}
	n := opt.N
	if n == 0 {
		n = k.DefaultN
		if opt.Measured {
			n = k.BenchN
		}
	}
	prog := k.IR(n)
	regions, err := analyzer.Analyze(prog, analyzer.Options{MaxThreads: opt.Machine.Cores()})
	if err != nil {
		return nil, err
	}
	region := regions[0]
	if region.Band != k.TileDims {
		return nil, fmt.Errorf("driver: analyzer band %d != kernel tile dims %d for %s",
			region.Band, k.TileDims, k.Name)
	}
	if opt.UnrollDim {
		if opt.Measured {
			return nil, fmt.Errorf("driver: the unroll dimension needs the simulated evaluator")
		}
		region.Skeleton = unrollSkeleton(region, opt.Machine)
	}
	return &prepared{kernel: k, n: n, prog: prog, region: region,
		salt: noiseSalt(opt, k.Name, fmt.Sprint(n), region.Skeleton.Name, fmt.Sprint(opt.Measured), fmt.Sprint(opt.UnrollDim))}, nil
}

// noiseSalt completes a fingerprint salt with the noise amplitude of
// the simulated evaluator. Its noise is deterministic, so values
// journaled under one amplitude are wrong under another: the amplitude
// is part of the problem. The measured evaluator ignores it. A
// noise-free salt is returned as it is, so its key keeps its bytes.
func noiseSalt(opt Options, salt ...string) []string {
	if opt.NoiseAmp != 0 && !opt.Measured {
		salt = append(salt, fmt.Sprintf("noise=%g", opt.NoiseAmp))
	}
	return salt
}

// unrollSkeleton is the region's skeleton with the innermost-loop
// unroll factor (1..8) as one more dimension.
func unrollSkeleton(region analyzer.Region, m *machine.Machine) *skeleton.Skeleton {
	return skeleton.TiledParallelUnroll(region.Skeleton.Name,
		region.Band, region.MaxTile, m.Cores(), region.Collapsible, 8)
}

// objectiveNames resolves the objective labels the evaluator built for
// opt reports, without building it: the measured evaluator always
// reports time+resources, the simulated one labels opt.Objectives
// (default time+resources).
func objectiveNames(opt Options) []string {
	if opt.Measured || len(opt.Objectives) == 0 {
		return []string{"time", "resources"}
	}
	names := make([]string, len(opt.Objectives))
	for i, k := range opt.Objectives {
		names[i] = k.String()
	}
	return names
}

// key is the tuning-database key of the problem — (program
// fingerprint, machine signature, objective set, search-space hash):
// what ProblemKey reports and what a search with Options.DB journals
// under.
func (p *prepared) key(opt Options) tunedb.Key {
	return tunedb.Key{
		Fingerprint: tunedb.ProgramFingerprint(p.prog, p.salt...),
		MachineSig:  machine.SignatureOf(opt.Machine).Key(),
		Objectives:  tunedb.ObjectiveKey(objectiveNames(opt)),
		SpaceHash:   tunedb.SpaceHash(p.region.Skeleton.Space),
	}
}

// ProblemKey derives the tuning-database key of a kernel tuning
// problem without running any search. It is exactly the key TuneKernel
// journals under when Options.DB is set, so a service front-end can
// deduplicate identical tuning requests and look up stored fronts
// before committing worker time.
func ProblemKey(kernelName string, opt Options) (tunedb.Key, error) {
	p, err := prepareKernel(kernelName, opt)
	if err != nil {
		return tunedb.Key{}, err
	}
	return p.key(opt), nil
}

// TuneKernel runs the full pipeline for a registered kernel.
func TuneKernel(kernelName string, opt Options) (*Output, error) {
	p, err := prepareKernel(kernelName, opt)
	if err != nil {
		return nil, err
	}
	return tune(p, opt)
}

// tune runs pipeline steps (3-5) on a prepared problem — the one tail
// TuneKernel and TuneProgram share: the region's evaluator chain
// (newChain) → search → front storage → multi-versioning backend.
func tune(p *prepared, opt Options) (*Output, error) {
	if err := CheckOptions(opt, false); err != nil {
		return nil, err
	}
	// (3) The evaluator and the layers over it.
	c, err := newChain(p, opt)
	if err != nil {
		return nil, err
	}
	defer c.close()
	// (4) Optimize, the warm start's seeds first.
	opt.Optimizer.InitialPopulation = append(c.seeds, opt.Optimizer.InitialPopulation...)
	res, err := runSearch(p.region.Skeleton.Space, c.eval, opt, c.ctrl)
	if err != nil {
		return nil, err
	}
	if len(res.Front) == 0 {
		return nil, emptyFront(p, res)
	}
	if err := c.finish(res); err != nil {
		return nil, err
	}
	// (5) Multi-versioning backend.
	return p.output(res, c.eval.ObjectiveNames())
}

// emptyFront is the error of a search that returned no front.
func emptyFront(p *prepared, res *optimizer.Result) error {
	if res.Partial {
		return fmt.Errorf("driver: search for %s was cancelled before any configuration was evaluated", p.kernel.Name)
	}
	return fmt.Errorf("driver: optimizer returned an empty front for %s", p.kernel.Name)
}

// evaluator builds the region's evaluator, pipeline step (3): timed
// execution of the real kernel, or the analytical model simulating it.
// It returns the evaluator's cache beside it, which the layers of the
// region's chain hook.
func (p *prepared) evaluator(opt Options) (objective.Evaluator, *objective.CachingEvaluator, error) {
	if opt.Measured {
		m, err := objective.NewMeasured(p.kernel, p.n, opt.MeasuredReps)
		if err != nil {
			return nil, nil, err
		}
		return m, m.CachingEvaluator, nil
	}
	s, err := objective.NewSim(objective.SimConfig{Machine: opt.Machine, Kernel: p.kernel, N: p.n,
		NoiseAmp: opt.NoiseAmp, Objectives: opt.Objectives, UnrollDim: opt.UnrollDim})
	if err != nil {
		return nil, nil, err
	}
	return s, s.CachingEvaluator, nil
}

// output runs the multi-versioning backend on the region's search
// result and packages both as its Output.
func (p *prepared) output(res *optimizer.Result, objectiveNames []string) (*Output, error) {
	unit, programs, err := emitUnit(p.kernel, p.prog, p.region, res, objectiveNames, p.n)
	if err != nil {
		return nil, err
	}
	return &Output{Result: res, Unit: unit, Programs: programs}, nil
}

// screened reports whether opt asks for the surrogate screen
// (Surrogate, or a positive ScreenTopK, which implies it).
func (opt Options) screened() bool { return opt.Surrogate || opt.ScreenTopK > 0 }

// checkpointed reports whether opt asks for a checkpoint journal,
// fresh or resumed.
func (opt Options) checkpointed() bool { return opt.CheckpointPath != "" || opt.ResumeFrom != "" }

// effectiveMethod resolves the defaulted search method.
func effectiveMethod(opt Options) Method {
	if opt.Method == "" {
		return MethodRSGDE3
	}
	return opt.Method
}

// capabilities is what a Method can do beyond a plain search. Every
// refusal of an option, and the "use one of" list in its text, is
// computed from these — no method is named in a refusal.
type capabilities struct {
	islands    bool // runs as an island model (Options.Islands > 1)
	screen     bool // searches under the surrogate screen
	checkpoint bool // keeps the generation state a checkpoint journals
}

// capabilitiesOf resolves what method can do from what its registered
// strategy declares: an exhaustive sweep refuses the screen, a Restore
// is what checkpoints. A race runs its contenders under the screen, and
// Run refuses islands and resume for it. ok is false for an unknown
// method.
func capabilitiesOf(method Method) (capabilities, bool) {
	if method == MethodRace {
		return capabilities{screen: true}, true
	}
	s, err := optimizer.StrategyByName(string(method))
	if err != nil {
		return capabilities{}, false
	}
	return capabilities{islands: s.Islands, screen: !s.Exhaustive, checkpoint: s.Restore != nil}, true
}

// Checkpointable reports whether method keeps the per-generation state
// a checkpoint journal records and a resume rebuilds — what the tuning
// service asks before it journals a job.
func Checkpointable(method Method) bool {
	c, _ := capabilitiesOf(method)
	return c.checkpoint
}

// ValidMethods lists every Method the driver accepts, sorted — the
// registered strategies and the race of them.
func ValidMethods() []string {
	names := append(optimizer.StrategyNames(), string(MethodRace))
	sort.Strings(names)
	return names
}

// methodsThat lists the valid methods with the given capability, for
// the "use one of" part of a refusal.
func methodsThat(can func(capabilities) bool) string {
	var names []string
	for _, n := range ValidMethods() {
		if c, _ := capabilitiesOf(Method(n)); can(c) {
			names = append(names, n)
		}
	}
	return strings.Join(names, ", ")
}

// CheckOptions reports the first option in opt that is negative, or
// that its method — or, with joint set, the joint multi-region search
// of TuneKernels and TuneProgramAll — cannot honour, rather than letting
// a search drop it silently. It looks at neither the machine nor the
// program, so a front-end (cmd/autotune, the tuning service) runs it on
// a request before committing anything; every Tune entry point runs it
// too.
func CheckOptions(opt Options, joint bool) error {
	method := effectiveMethod(opt)
	can, ok := capabilitiesOf(method)
	if !ok {
		return fmt.Errorf("driver: unknown method %q (valid: %s)", method, strings.Join(ValidMethods(), ", "))
	}
	// A negative size, count, amplitude or timeout means nothing: a
	// negative population cannot be sized, a negative stagnation window or
	// iteration cap would silently run zero generations, and a front-end
	// passing one through must not have it read as the default.
	o := opt.Optimizer
	for _, f := range []struct {
		name string
		neg  bool
		v    any
	}{
		{"N", opt.N < 0, opt.N}, {"Islands", opt.Islands < 0, opt.Islands}, {"MigrationInterval", opt.MigrationInterval < 0, opt.MigrationInterval},
		{"RandomBudget", opt.RandomBudget < 0, opt.RandomBudget}, {"ScreenTopK", opt.ScreenTopK < 0, opt.ScreenTopK},
		{"NoiseAmp", opt.NoiseAmp < 0, opt.NoiseAmp}, {"EvalTimeout", opt.EvalTimeout < 0, opt.EvalTimeout},
		{"Optimizer.PopSize", o.PopSize < 0, o.PopSize}, {"Optimizer.Stagnation", o.Stagnation < 0, o.Stagnation},
		{"Optimizer.MaxIterations", o.MaxIterations < 0, o.MaxIterations},
	} {
		if f.neg {
			return fmt.Errorf("driver: %s %v must not be negative", f.name, f.v)
		}
	}
	if joint {
		return checkJoint(opt, method)
	}
	switch {
	case opt.Islands > 1 && !can.islands:
		// Silently falling back to a sequential search would make
		// `-islands 4 -method random` lie about what ran.
		return fmt.Errorf("driver: method %q does not support the island model (islands=%d); drop Islands or use one of: %s",
			method, opt.Islands, methodsThat(func(c capabilities) bool { return c.islands }))
	case opt.screened() && !can.screen:
		return fmt.Errorf("driver: method %q sweeps every configuration it is given; the surrogate screen would silently hollow out the sweep — drop Surrogate or use one of: %s",
			method, methodsThat(func(c capabilities) bool { return c.screen }))
	case opt.checkpointed() && !can.checkpoint:
		return fmt.Errorf("driver: method %q keeps no resumable generation state; checkpoint/resume needs one of: %s",
			method, methodsThat(func(c capabilities) bool { return c.checkpoint }))
	}
	if method == MethodRace {
		// What the race itself would refuse, by the check Run makes.
		if _, err := opt.race().Resolve(); err != nil {
			return fmt.Errorf("driver: %w", err)
		}
	}
	return nil
}

// race is the race Options.Race asks for.
func (opt Options) race() optimizer.RaceOptions {
	return optimizer.RaceOptions{Strategies: opt.Race.Strategies, Interval: opt.Race.Interval, Budget: opt.Race.Budget}
}

// checkJoint is CheckOptions for the joint search: one lock-step
// RS-GDE3 per region, each over the evaluator chain a single-region
// search of it would build, is what runs whatever else is asked — so
// the evaluator's options (NoiseAmp, Objectives, UnrollDim), the
// database, the watchdog and the context are honoured, and every option
// a single-region search would honour and this one drops is refused by
// name, with the reason. Knobs of other methods (RandomBudget,
// GridPoints, Race) are ignored here as they are by every method but
// their own.
func checkJoint(opt Options, method Method) error {
	if method != MethodRSGDE3 && method != MethodGDE3 {
		return fmt.Errorf("driver: joint tuning runs the lock-step multi-region RS-GDE3 and cannot honour Method %q; use %s or %s", method, MethodRSGDE3, MethodGDE3)
	}
	for _, o := range []struct {
		set  bool
		name string
	}{
		{opt.Measured, "Measured (regions timed one by one share no execution)"},
		{opt.screened(), "Surrogate (the lock-step search installs no screen)"},
		{opt.Islands > 1, "Islands (the lock-step search runs one population per region)"},
		{len(opt.Optimizer.InitialPopulation) > 0, "Optimizer.InitialPopulation (one seed list cannot address several regions' spaces)"},
		{opt.WarmStart, "WarmStart (its seeds address one region's space, and the lock-step search takes one Options)"},
		{opt.checkpointed(), "CheckpointPath/ResumeFrom (the lock-step search keeps no resumable state)"},
		{opt.OnProgress != nil, "OnProgress (a joint run's E counts program executions, not evaluations)"},
	} {
		if o.set {
			return fmt.Errorf("driver: joint tuning cannot honour %s; drop the option or tune the regions one by one", o.name)
		}
	}
	return nil
}

// runSearch builds the Spec opt asks for and runs it. This is the one
// place a method name becomes a search call, and the one place the
// options are narrowed to what a method takes: the one-shot baselines,
// run alone, take the seed and the budget only — neither PopSize (their
// chunking) nor the warm-start seeds in InitialPopulation, which a race
// does hand them — an exhaustive sweep takes its grid, and everything
// else takes Options.Optimizer whole.
func runSearch(space skeleton.Space, eval objective.Evaluator, opt Options, ctrl optimizer.Control) (*optimizer.Result, error) {
	method := effectiveMethod(opt)
	spec := optimizer.Spec{Config: optimizer.StrategyConfig{Options: opt.Optimizer, RandomBudget: opt.RandomBudget}}
	if method == MethodRace {
		ropt := opt.race()
		spec.Race = &ropt
		return optimizer.Run(space, eval, spec, ctrl)
	}
	strat, err := optimizer.StrategyByName(string(method))
	if err != nil {
		return nil, err
	}
	spec.Strategy = strat.Name
	if strat.OneShot {
		spec.Config.Options = optimizer.Options{Seed: opt.Optimizer.Seed}
	}
	if strat.Exhaustive {
		if spec.Config.Grid, err = sweepGrid(space, opt.GridPoints); err != nil {
			return nil, err
		}
	}
	if opt.Islands > 1 {
		spec.Islands = &optimizer.IslandOptions{Islands: opt.Islands, MigrationInterval: opt.MigrationInterval}
	}
	return optimizer.Run(space, eval, spec, ctrl)
}

// sweepGrid is the regular grid an exhaustive sweep covers: points per
// dimension, or 12 points per tile dimension and every thread count
// (capped at 64).
func sweepGrid(space skeleton.Space, points []int) (optimizer.Grid, error) {
	if len(points) == 0 {
		points = make([]int, space.Dim())
		for i := range points {
			points[i] = 12
		}
		last := space.Params[space.Dim()-1]
		points[space.Dim()-1] = min(int(last.Max-last.Min+1), 64)
	}
	return optimizer.RegularGrid(space, points)
}

// EmitUnit builds the multi-versioned unit for a tuned region: one
// version per Pareto point, each with the transformed code listing,
// metadata and an executable entry bound to the kernel's real Go
// implementation.
func EmitUnit(k *kernels.Kernel, prog *ir.Program, region analyzer.Region,
	res *optimizer.Result, objectiveNames []string, n int64) (*multiversion.Unit, error) {
	unit, _, err := emitUnit(k, prog, region, res, objectiveNames, n)
	return unit, err
}

// emitUnit is EmitUnit, returning beside the unit each version's
// transformed program, in the unit's order — what TuneResult.EmitC
// renders, so that no skeleton is applied twice. Every version is
// built in one pass from slabs sized for the whole unit: the programs
// by one skeleton Apply, the metadata's configurations and tiles as
// capped cuts of one int64 slab and its objectives of one float64
// slab, and the listings into one builder grown once, each Code a
// substring of it. Apart from its Entry a version allocates nothing of
// its own.
func emitUnit(k *kernels.Kernel, prog *ir.Program, region analyzer.Region,
	res *optimizer.Result, objectiveNames []string, n int64) (*multiversion.Unit, []*ir.Program, error) {
	unit := &multiversion.Unit{
		Region:         region.Skeleton.Name,
		ObjectiveNames: objectiveNames,
	}
	if fs, err := features.Extract(prog); err == nil {
		unit.Features = fs.AsMap()
	}
	// Emit versions sorted by the first objective (fastest last) for a
	// stable, readable table.
	front := make([]pareto.Point, len(res.Front))
	copy(front, res.Front)
	slices.SortFunc(front, byFirstObjective)
	cfgs := make([]skeleton.Config, len(front))
	nInts, nFloats := 0, 0
	for i, p := range front {
		cfgs[i] = p.Payload.(skeleton.Config)
		nInts += len(cfgs[i]) + region.Band
		nFloats += len(p.Objectives)
	}
	// Outline the region (the backend's "outlining the selected regions
	// into functions") so multi-region programs transform the right
	// nest.
	programs, insts, err := region.Skeleton.Apply(region.Outline(prog), cfgs...)
	if err != nil {
		return nil, nil, fmt.Errorf("driver: %w", err)
	}
	ints := make([]int64, nInts)
	floats := make([]float64, nFloats)
	size := 0
	for _, p := range programs {
		size += p.ListingLen()
	}
	var listings strings.Builder
	listings.Grow(size)
	unit.Versions = make([]multiversion.Version, len(front))
	for i, cfg := range cfgs {
		tiles := copyCut(&ints, cfg[:region.Band])
		threads := insts[i].Threads
		start := listings.Len()
		programs[i].Print(&listings)
		version := &unit.Versions[i]
		*version = multiversion.Version{
			Meta: multiversion.Meta{
				Config:     copyCut(&ints, cfg),
				Tiles:      tiles,
				Threads:    threads,
				Unroll:     insts[i].Unroll,
				Objectives: copyCut(&floats, front[i].Objectives),
			},
			// The builder never grows past its first Grow, and what it
			// has written is never written again.
			Code: listings.String()[start:],
		}
		if k.Run != nil {
			version.Entry = func() error {
				_, err := k.Run(n, tiles, threads)
				return err
			}
		}
	}
	if err := unit.Validate(); err != nil {
		return nil, nil, err
	}
	return unit, programs, nil
}

// byFirstObjective orders Pareto points by their first objective. It
// reports only "less" (-1) or "not less" (0), so slices.SortFunc orders
// exactly as sort.Slice with the less function a < b, NaN and ties
// included: the order the pinned units were emitted in.
func byFirstObjective(a, b pareto.Point) int {
	if a.Objectives[0] < b.Objectives[0] {
		return -1
	}
	return 0
}

// copyCut copies src into the next len(src) elements of *slab, capped,
// and advances the slab. An empty src yields nil, which Unit.Encode
// writes as null.
func copyCut[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	n := len(src)
	dst := (*slab)[:n:n]
	*slab = (*slab)[n:]
	copy(dst, src)
	return dst
}
