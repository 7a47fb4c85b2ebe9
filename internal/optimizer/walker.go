package optimizer

import (
	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// walker evaluates a list of configurations drawn up front, in
// cancellation-checked chunks, into a Pareto archive — the one-shot
// baselines on the stepping evolver surface. Random search draws the
// list, the grid strategy strides over a coarse grid, brute force
// enumerates an explicit one. A walk steps PopSize configurations at a
// time, so a race generation costs the same across contenders; a sweep
// steps sweepChunk.
type walker struct {
	eval    objective.Evaluator
	cfgs    []skeleton.Config
	chunk   int
	next    int
	archive *pareto.Archive
	// keepAll retains every successfully evaluated point in all, in
	// evaluation order (brute force's Result.AllPoints), which is sized
	// to the walk up front.
	keepAll bool
	all     []pareto.Point
}

// sweepChunk is how many configurations brute force evaluates per
// step: the granularity at which a sweep honours cancellation and
// reports progress.
const sweepChunk = 64

func (w *walker) step() {
	hi := min(w.next+w.chunk, len(w.cfgs))
	batch := w.cfgs[w.next:hi]
	w.next = hi
	for i, o := range w.eval.Evaluate(batch) {
		if !w.keepAll {
			offer(w.archive, batch[i], o, nil)
		} else if o != nil {
			p := pareto.Point{Payload: batch[i], Objectives: o}
			w.all = append(w.all, p)
			w.archive.Add(p)
		}
	}
}

func (w *walker) done() bool { return w.next >= len(w.cfgs) }

func (w *walker) elites(int) []individual { return nil }

func (w *walker) inject([]individual) {}

func (w *walker) points() []pareto.Point { return w.archive.Points() }

// snapshot is never called: a walk registers no Restore hook, so
// checkpointing is disabled for it.
func (w *walker) snapshot() IslandState { return IslandState{} }

// randomWalk is the list the "random" strategy walks: the budget drawn
// from the seed, behind the warm-start seeds (capped at half the
// budget), which are proposed first — they are typically primed in the
// shared cache and therefore free.
func randomWalk(space skeleton.Space, cfg StrategyConfig, seed int64) []skeleton.Config {
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
	slab := make([]int64, 0, (budget-len(cfgs))*space.Dim())
	for len(cfgs) < budget {
		cfgs = append(cfgs, drawInto(&slab, space, rng))
	}
	return cfgs
}

// walkStrategy registers a one-shot baseline: list draws what an
// instance walks, PopSize configurations a step, and RandomBudget
// (default 1000) bounds it.
func walkStrategy(name string, list func(space skeleton.Space, cfg StrategyConfig, seed int64) []skeleton.Config) Strategy {
	return Strategy{
		Name:    name,
		OneShot: true,
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return &walker{eval: eval, cfgs: list(space, cfg, seed), chunk: cfg.Options.PopSize, archive: pareto.NewArchive()}
		},
		MaxGenerations: func(cfg StrategyConfig) int {
			return (cfg.RandomBudget + cfg.Options.PopSize - 1) / cfg.Options.PopSize
		},
		Normalize: func(space skeleton.Space, cfg StrategyConfig) StrategyConfig {
			cfg.Options = cfg.Options.withDefaults()
			if cfg.RandomBudget == 0 {
				cfg.RandomBudget = 1000
			}
			return cfg
		},
	}
}

func init() {
	registerStrategy(walkStrategy("random", randomWalk))
	registerStrategy(walkStrategy("grid", gridWalk))
	// Brute force evaluates every configuration of cfg.Grid in
	// lexicographic order and keeps them all for Result.AllPoints (the
	// Table II / Fig. 8 analyses).
	registerStrategy(Strategy{
		Name:       "brute-force",
		OneShot:    true,
		Exhaustive: true,
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, _ int64) islandEvolver {
			cfgs := cfg.Grid.configs(space)
			if sc, ok := eval.(objective.SharedCacher); ok {
				// The sweep's size is known: the cache grows to it once
				// rather than through every doubling on the way.
				sc.SharedCache().Reserve(len(cfgs))
			}
			return &walker{eval: eval, cfgs: cfgs, chunk: sweepChunk, archive: pareto.NewArchive(),
				keepAll: true, all: make([]pareto.Point, 0, len(cfgs))}
		},
		MaxGenerations: func(cfg StrategyConfig) int { return (cfg.Grid.Size() + sweepChunk - 1) / sweepChunk },
		Normalize: func(_ skeleton.Space, cfg StrategyConfig) StrategyConfig {
			cfg.Options = cfg.Options.withDefaults()
			return cfg
		},
	})
}
