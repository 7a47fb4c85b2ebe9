// First-class strategy registry: every search strategy the framework
// knows — the evolutionary ones, the walks and the brute-force sweep —
// is registered by name with a constructor, a resume hook, an options
// fingerprint and what it can do. Run drives any one of them from a
// Spec, and races them when the Spec says so: the racing meta-optimizer
// (race.go) draws its heterogeneous contenders from the same table, all
// but the exhaustive ones — one registration serves both the
// single-strategy and the portfolio path.
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
// the GDE3-family parameters; a nonzero NSGA2.Seed overrides
// Options.Seed for "nsga2"; RandomBudget is the total
// proposal budget of a walk — "random" and "grid" (default 1000); Grid
// is what "brute-force" sweeps, one value list per space dimension.
type StrategyConfig struct {
	Options      Options
	NSGA2        NSGA2Options
	RandomBudget int
	Grid         Grid
}

// validate refuses the negative sizes no strategy's Normalize replaces
// by a default.
func (c StrategyConfig) validate() error {
	if c.RandomBudget < 0 {
		return fmt.Errorf("optimizer: walk budget %d < 0", c.RandomBudget)
	}
	return c.Options.validate()
}

// Strategy is one registered search strategy: a name, a constructor
// producing stepping search instances, and an options fingerprint.
// Registered strategies share the islandEvolver stepping surface, so
// the controlled generation loop, the island-model driver and the
// racing meta-optimizer can all drive any of them (the race, any but an
// Exhaustive one).
type Strategy struct {
	// Name is the registry key and the method label used in snapshots
	// and results ("rs-gde3", "gde3", "nsga2", "motpe", "random",
	// "grid", "brute-force").
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
	// options, seed, island layout); resume refuses a mismatch. Only a
	// strategy with a Restore needs one.
	Fingerprint func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string
	// Islands declares that instances exchange elites over the
	// migration ring, so Run accepts Spec.Islands for the strategy.
	Islands bool
	// OneShot marks a baseline that walks a list drawn up front: it has
	// no iterations to report, so Run reports Result.Iterations as 0
	// however many chunks the walk stepped through.
	OneShot bool
	// Exhaustive marks a sweep of every configuration of
	// StrategyConfig.Grid, whose point is that nothing is skipped: it
	// never races (a race would stop it short), and a surrogate screen
	// would hollow it out. Run refuses a Grid that does not fit the space.
	Exhaustive bool
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

// registerStrategy adds a strategy to the registry. Registering a
// duplicate or an incomplete entry panics: registration happens at
// package init time and a bad entry is a programming error.
func registerStrategy(s Strategy) {
	if s.Name == "" || s.New == nil || s.MaxGenerations == nil || s.Normalize == nil || (s.Restore != nil && s.Fingerprint == nil) {
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

// Spec says what Run searches with: a registered strategy, its
// configuration and the island layout — or a race of registered
// strategies over that configuration.
type Spec struct {
	// Strategy names a registered strategy (see StrategyNames). Empty
	// for a race.
	Strategy string
	// Config is the strategy-agnostic configuration; the strategy's
	// Normalize fills its defaults.
	Config StrategyConfig
	// Islands selects the island model. Nil runs the serial algorithm:
	// one instance whose archive is returned in insertion order. Non-nil
	// runs that many islands (zero fields take the IslandOptions
	// defaults, so an empty value is four islands) and returns their
	// merged front in canonical order — also for a single island, whose
	// points are the serial run's in another order.
	Islands *IslandOptions
	// Race, when set, races the contenders it names over Config instead
	// of running Strategy, and Run returns their standings on
	// Result.Standings. A race takes no Islands and cannot resume.
	Race *RaceOptions
}

// Run is the search engine every strategy plugs into: resolve the
// registry entry, normalize the options, refuse what the strategy does
// not declare, wire the run control, build (or restore) the search
// islands and drive the controlled generation loop. Cancellation
// returns the best-so-far front with Result.Partial set rather than an
// error.
func Run(space skeleton.Space, eval objective.Evaluator, spec Spec, ctrl Control) (*Result, error) {
	if spec.Race != nil {
		return race(space, eval, spec, ctrl)
	}
	strat, err := StrategyByName(spec.Strategy)
	if err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Config.validate(); err != nil {
		return nil, err
	}
	cfg := strat.Normalize(space, spec.Config)
	w, iopt := 1, IslandOptions{}
	if spec.Islands != nil {
		if !strat.Islands {
			return nil, fmt.Errorf("optimizer: strategy %q does not support the island model", strat.Name)
		}
		iopt = spec.Islands.withDefaults(cfg.Options.PopSize)
		if err := iopt.validate(); err != nil {
			return nil, err
		}
		w = iopt.Islands
	}
	if strat.Exhaustive && len(cfg.Grid) != space.Dim() {
		return nil, fmt.Errorf("optimizer: grid dims %d != space dims %d", len(cfg.Grid), space.Dim())
	}
	fingerprint := ""
	if strat.Restore == nil {
		if ctrl.Resume != nil {
			return nil, fmt.Errorf("optimizer: %s keeps no generation state; resume needs an evolutionary method", strat.Name)
		}
		// No resume support means no usable snapshots either.
		ctrl.Checkpointer = nil
	} else {
		fingerprint = strat.Fingerprint(space, cfg, w, iopt)
	}
	run := newControlledRun(eval, ctrl, strat.Name, fingerprint)
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
	var migrate func(int)
	if w > 1 {
		migrate = func(gen int) {
			if gen%iopt.MigrationInterval == 0 {
				migrateRing(islands, iopt.Migrants)
			}
		}
	}
	gens, partial, err := run.loop(islands, strat.MaxGenerations(cfg), false, migrate)
	if err != nil {
		return nil, err
	}
	res := &Result{Evaluations: run.totalE(), Iterations: gens, Partial: partial}
	if spec.Islands != nil {
		res.Front = mergeFronts(w, func(i int) []pareto.Point { return islands[i].points() })
	} else {
		res.Front = islands[0].points()
	}
	if strat.OneShot {
		res.Iterations = 0
	}
	// A sweep's every point, for a complete sweep only.
	if walk, ok := islands[0].(*walker); ok && !partial {
		res.AllPoints = walk.all
	}
	return res, nil
}

// normalizeNSGA2 fills the effective NSGA-II options into cfg.Options:
// the shared defaults, and NSGA2.Seed when it is set.
func normalizeNSGA2(_ skeleton.Space, cfg StrategyConfig) StrategyConfig {
	cfg.Options = cfg.Options.withDefaults()
	if cfg.NSGA2.Seed != 0 {
		cfg.Options.Seed = cfg.NSGA2.Seed
	}
	return cfg
}

func init() {
	gdeStrategy := func(name string, disableRoughSet bool) Strategy {
		return Strategy{
			Name: name,
			New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
				return newGDEIsland(space, eval, cfg.Options, stats.NewCountedRand(seed))
			},
			Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
				g := gdeOver(space, eval, cfg.Options)
				g.restore(seed, st)
				return g
			},
			Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
				return gdeFingerprint(space, cfg.Options, islands, iopt)
			},
			Islands:        true,
			MaxGenerations: func(cfg StrategyConfig) int { return cfg.Options.MaxIterations },
			Normalize: func(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
				cfg.Options = cfg.Options.withDefaults()
				// Options.DisableRoughSet turns "rs-gde3" into plain GDE3
				// wherever it is set, as the field says; "gde3" is the
				// name for it.
				cfg.Options.DisableRoughSet = cfg.Options.DisableRoughSet || disableRoughSet
				return cfg
			},
		}
	}
	registerStrategy(gdeStrategy("rs-gde3", false))
	registerStrategy(gdeStrategy("gde3", true))
	registerStrategy(Strategy{
		Name: "nsga2",
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return newNSGA2Island(space, eval, cfg.Options, seed)
		},
		Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
			n := nsga2Over(space, eval, cfg.Options)
			n.restore(seed, st)
			return n
		},
		Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
			return nsga2Fingerprint(space, cfg.Options, islands, iopt)
		},
		Islands:        true,
		MaxGenerations: func(cfg StrategyConfig) int { return cfg.Options.MaxIterations },
		Normalize:      normalizeNSGA2,
	})
	registerStrategy(Strategy{
		Name: "motpe",
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return newMOTPEIsland(space, eval, cfg.Options, seed)
		},
		Restore: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64, st IslandState) islandEvolver {
			m := &motpeIsland{population: population{space: space, eval: eval, opt: cfg.Options}}
			m.restore(seed, st)
			return m
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
