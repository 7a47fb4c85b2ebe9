// First-class strategy registry: every search strategy the framework
// knows is registered by name with a constructor, a resume hook and an
// options fingerprint. The public optimizer entry points
// (RSGDE3Controlled, NSGA2Controlled, RandomControlled and the island
// variants) are thin wrappers over registry lookups, and the racing
// meta-optimizer (race.go) draws its heterogeneous contenders from the
// same table — one registration serves both the single-strategy and
// the portfolio path.
package optimizer

import (
	"fmt"
	"sort"
	"sync"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// StrategyConfig is the strategy-agnostic configuration handed to
// every registered constructor. Options carries the shared knobs
// (PopSize, Seed, Stagnation, MaxIterations, InitialPopulation) plus
// the GDE3-family parameters; NSGA2 overrides the NSGA-II-specific
// rates (zero fields derive from Options); RandomBudget is the total
// proposal budget of the "random" strategy (default 1000).
type StrategyConfig struct {
	Options      Options
	NSGA2        NSGA2Options
	RandomBudget int
}

// Strategy is one registered search strategy: a name, a constructor
// producing stepping search instances, and an options fingerprint.
// Registered strategies share the islandEvolver stepping surface, so
// the controlled generation loop, the island-model driver and the
// racing meta-optimizer can all drive any of them.
type Strategy struct {
	// Name is the registry key and the method label used in snapshots
	// and results ("rs-gde3", "gde3", "nsga2", "random", "motpe").
	Name string
	// New builds one search instance with its own RNG stream derived
	// from seed. The returned evolver has already evaluated its
	// initial state. cfg has been normalized.
	New func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver
	// Restore rebuilds an instance from a checkpointed island state.
	// Nil marks a strategy without checkpoint/resume support (the
	// one-shot baselines); such strategies ignore Control.Checkpointer
	// and reject Control.Resume.
	Restore func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver
	// Fingerprint hashes the search-defining configuration (space,
	// options, seed, island layout); resume refuses a mismatch.
	Fingerprint func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string
	// MaxGenerations is the generation cap of an instance under cfg
	// (chunk count for the chunked baselines).
	MaxGenerations func(cfg StrategyConfig) int
	// Normalize applies the strategy's defaults to cfg. It must leave
	// cfg.Options.PopSize and cfg.Options.Seed at their effective
	// values, whichever option struct they came from.
	Normalize func(space skeleton.Space, cfg StrategyConfig) StrategyConfig
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Strategy{}
)

// RegisterStrategy adds a strategy to the registry. Registering a
// duplicate or an incomplete entry panics: registration happens at
// package init time and a bad entry is a programming error.
func RegisterStrategy(s Strategy) {
	if s.Name == "" || s.New == nil || s.Fingerprint == nil || s.MaxGenerations == nil || s.Normalize == nil {
		panic(fmt.Sprintf("optimizer: incomplete strategy registration %q", s.Name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := registry[s.Name]; ok {
		panic(fmt.Sprintf("optimizer: strategy %q registered twice", s.Name))
	}
	registry[s.Name] = s
}

// StrategyByName resolves a registered strategy.
func StrategyByName(name string) (Strategy, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return Strategy{}, fmt.Errorf("optimizer: unknown strategy %q (registered: %v)", name, strategyNamesLocked())
	}
	return s, nil
}

// StrategyNames lists the registered strategies in sorted order.
func StrategyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return strategyNamesLocked()
}

func strategyNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runStrategy is the shared engine behind the single-strategy entry
// points: resolve the registry entry, normalize the options, wire the
// run control, build (or restore) the search islands and drive the
// controlled generation loop. parallel selects the island-model layout
// (iopt is then defaulted, validated and clamped against the effective
// population size, and the merged front is sorted canonically); serial
// runs keep the single archive's insertion order, exactly as the
// pre-registry entry points did.
func runStrategy(name string, space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, iopt IslandOptions, parallel bool, ctrl Control) (*Result, error) {
	strat, err := StrategyByName(name)
	if err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	cfg = strat.Normalize(space, cfg)
	w := 1
	if parallel {
		iopt = iopt.withDefaults(cfg.Options.PopSize)
		if err := iopt.validate(); err != nil {
			return nil, err
		}
		w = iopt.Islands
	}
	if strat.Restore == nil {
		if ctrl.Resume != nil {
			return nil, fmt.Errorf("optimizer: %s keeps no generation state; resume needs an evolutionary method", strat.Name)
		}
		// No resume support means no usable snapshots either.
		ctrl.Checkpointer = nil
	}
	run := newControlledRun(eval, ctrl, strat.Name, strat.Fingerprint(space, cfg, w, iopt))
	defer run.close()
	if err := run.checkResume(w); err != nil {
		return nil, err
	}
	islands := make([]islandEvolver, w)
	if snap := ctrl.Resume; snap != nil {
		for i := range islands {
			islands[i] = strat.Restore(space, eval, cfg, cfg.Options.Seed+int64(i), snap.States[i])
		}
	} else {
		spawn(len(islands), func(i int) {
			islands[i] = strat.New(space, eval, cfg, cfg.Options.Seed+int64(i))
		})
	}
	gens, partial, err := run.loop(islands, strat.MaxGenerations(cfg), iopt)
	if err != nil {
		return nil, err
	}
	var res *Result
	if parallel {
		res = mergeIslands(islands, eval, gens)
	} else {
		res = &Result{Front: islands[0].points(), Iterations: gens}
	}
	res.Evaluations = run.totalE()
	res.Partial = partial
	return res, nil
}

// randomWalker adapts the random-search baseline to the stepping
// evolver surface: the budget is pre-drawn up front and evaluated in
// cancellation-checked chunks per step — PopSize configurations when
// one is set (so a race generation costs the same across contenders),
// randomChunk otherwise. Warm-start seeds (capped at half the budget)
// are proposed first — they are typically primed in the shared cache
// and therefore free.
type randomWalker struct {
	eval    objective.Evaluator
	cfgs    []skeleton.Config
	chunk   int
	next    int
	archive *pareto.Archive
}

// walkerChunk is the number of configurations a randomWalker evaluates
// per step for the given (normalized) configuration.
func walkerChunk(cfg StrategyConfig) int {
	if cfg.Options.PopSize > 0 {
		return cfg.Options.PopSize
	}
	return randomChunk
}

func newRandomWalker(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
	budget := cfg.RandomBudget
	rng := stats.NewRand(seed)
	cfgs := make([]skeleton.Config, 0, budget)
	for _, s := range cfg.Options.InitialPopulation {
		if len(cfgs) >= budget/2 {
			break
		}
		if len(s) == space.Dim() {
			cfgs = append(cfgs, space.Clip(s))
		}
	}
	for len(cfgs) < budget {
		cfgs = append(cfgs, space.Random(rng))
	}
	return &randomWalker{eval: eval, cfgs: cfgs, chunk: walkerChunk(cfg), archive: pareto.NewArchive()}
}

func (r *randomWalker) step() {
	hi := r.next + r.chunk
	if hi > len(r.cfgs) {
		hi = len(r.cfgs)
	}
	batch := r.cfgs[r.next:hi]
	r.next = hi
	objs := r.eval.Evaluate(batch)
	for i, o := range objs {
		if o != nil {
			r.archive.Add(pareto.Point{Payload: batch[i], Objectives: o})
		}
	}
}

func (r *randomWalker) done() bool { return r.next >= len(r.cfgs) }

func (r *randomWalker) elites(int) []individual { return nil }

func (r *randomWalker) inject([]individual) {}

func (r *randomWalker) points() []pareto.Point { return r.archive.Points() }

// snapshot is never called: the random strategy registers no Restore
// hook, so checkpointing is disabled for it.
func (r *randomWalker) snapshot() IslandState { return IslandState{} }

// normalizeNSGA2 fills the effective NSGA-II options: explicit NSGA2
// fields win, zero fields derive from the shared Options counterparts,
// and the result carries the strategy defaults. The shared fields are
// mirrored back into cfg.Options so the generic machinery (island
// seeding, migrant clamping) sees the effective values.
func normalizeNSGA2(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
	n := cfg.NSGA2
	if n.PopSize == 0 {
		n.PopSize = cfg.Options.PopSize
	}
	if n.Stagnation == 0 {
		n.Stagnation = cfg.Options.Stagnation
	}
	if n.MaxGenerations == 0 {
		n.MaxGenerations = cfg.Options.MaxIterations
	}
	if n.Seed == 0 {
		n.Seed = cfg.Options.Seed
	}
	if n.InitialPopulation == nil {
		n.InitialPopulation = cfg.Options.InitialPopulation
	}
	n = n.withDefaults(space.Dim())
	cfg.NSGA2 = n
	cfg.Options.PopSize = n.PopSize
	cfg.Options.Seed = n.Seed
	return cfg
}

func init() {
	gdeStrategy := func(name string, disableRoughSet bool) Strategy {
		return Strategy{
			Name: name,
			New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
				return newGDEIsland(space, eval, cfg.Options, seed)
			},
			Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
				return restoreGDEIsland(space, eval, cfg.Options, seed, st)
			},
			Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
				return gdeFingerprint(space, cfg.Options, islands, iopt)
			},
			MaxGenerations: func(cfg StrategyConfig) int { return cfg.Options.MaxIterations },
			Normalize: func(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
				cfg.Options = cfg.Options.withDefaults()
				cfg.Options.DisableRoughSet = disableRoughSet
				return cfg
			},
		}
	}
	RegisterStrategy(gdeStrategy("rs-gde3", false))
	RegisterStrategy(gdeStrategy("gde3", true))
	RegisterStrategy(Strategy{
		Name: "nsga2",
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return newNSGA2Island(space, eval, cfg.NSGA2, seed)
		},
		Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
			return restoreNSGA2Island(space, eval, cfg.NSGA2, seed, st)
		},
		Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
			return nsga2Fingerprint(space, cfg.NSGA2, islands, iopt)
		},
		MaxGenerations: func(cfg StrategyConfig) int { return cfg.NSGA2.MaxGenerations },
		Normalize:      normalizeNSGA2,
	})
	RegisterStrategy(Strategy{
		Name: "random",
		New:  newRandomWalker,
		Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
			return fingerprintOf("random", spaceKey(space), cfg.RandomBudget, cfg.Options.Seed, islands)
		},
		MaxGenerations: func(cfg StrategyConfig) int {
			chunk := walkerChunk(cfg)
			return (cfg.RandomBudget + chunk - 1) / chunk
		},
		Normalize: func(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
			cfg.Options = cfg.Options.withDefaults()
			if cfg.RandomBudget == 0 {
				cfg.RandomBudget = 1000
			}
			return cfg
		},
	})
	RegisterStrategy(Strategy{
		Name: "motpe",
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return newMOTPEIsland(space, eval, cfg.Options, seed)
		},
		Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
			return restoreMOTPEIsland(space, eval, cfg.Options, seed, st)
		},
		Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
			return motpeFingerprint(space, cfg.Options, islands, iopt)
		},
		MaxGenerations: func(cfg StrategyConfig) int { return cfg.Options.MaxIterations },
		Normalize: func(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
			cfg.Options = cfg.Options.withDefaults()
			return cfg
		},
	})
}
