package optimizer

import (
	"fmt"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// walker evaluates a list of configurations drawn up front, in
// cancellation-checked chunks, into a Pareto archive — the one-shot
// baselines on the stepping evolver surface. Random search draws the
// list, the grid strategy strides over a coarse grid, brute force
// enumerates an explicit one. A registered walk steps PopSize
// configurations at a time, so a race generation costs the same across
// contenders.
type walker struct {
	eval    objective.Evaluator
	cfgs    []skeleton.Config
	chunk   int
	next    int
	archive *pareto.Archive
	// keepAll retains every successfully evaluated point in all, in
	// evaluation order (brute force's Result.AllPoints).
	keepAll bool
	all     []pareto.Point
}

// randomChunk is the chunk of a walk outside the registry (brute
// force) — the granularity at which it honors cancellation.
const randomChunk = 64

// walkerChunk is the number of configurations a registered walk
// evaluates per step for the given (normalized) configuration.
func walkerChunk(cfg StrategyConfig) int {
	if cfg.Options.PopSize > 0 {
		return cfg.Options.PopSize
	}
	return randomChunk
}

func (w *walker) step() {
	hi := min(w.next+w.chunk, len(w.cfgs))
	batch := w.cfgs[w.next:hi]
	w.next = hi
	for i, o := range w.eval.Evaluate(batch) {
		if o == nil {
			continue
		}
		p := pareto.Point{Payload: batch[i], Objectives: o}
		if w.keepAll {
			w.all = append(w.all, p)
		}
		w.archive.Add(p)
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
	for len(cfgs) < budget {
		cfgs = append(cfgs, space.Random(rng))
	}
	return cfgs
}

// walkStrategy registers a one-shot baseline: list draws what an
// instance walks, RandomBudget (default 1000) bounds it, and the chunk
// count is its generation cap.
func walkStrategy(name string, list func(space skeleton.Space, cfg StrategyConfig, seed int64) []skeleton.Config) Strategy {
	return Strategy{
		Name:    name,
		OneShot: true,
		New: func(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, seed int64) islandEvolver {
			return &walker{eval: eval, cfgs: list(space, cfg, seed), chunk: walkerChunk(cfg), archive: pareto.NewArchive()}
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
	}
}

func init() {
	RegisterStrategy(walkStrategy("random", randomWalk))
	RegisterStrategy(walkStrategy("grid", gridWalk))
}

// BruteForceControlled exhaustively evaluates every configuration of
// the grid and returns the Pareto front plus all evaluated points
// (consumed by the Table II / Fig. 8 analyses). It is the one sweep
// outside the registry: its input is an explicit Grid, not a budget,
// and a registered name would enter every default race. A done context
// stops it at the next chunk boundary with Result.Partial set;
// AllPoints is only populated for complete sweeps. It keeps no
// generation state, so Checkpointer is ignored and Resume is an error.
func BruteForceControlled(space skeleton.Space, eval objective.Evaluator, grid Grid, ctrl Control) (*Result, error) {
	if ctrl.Resume != nil {
		return nil, fmt.Errorf("optimizer: brute force keeps no generation state; resume needs an evolutionary method")
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(grid) != space.Dim() {
		return nil, fmt.Errorf("optimizer: grid dims %d != space dims %d", len(grid), space.Dim())
	}
	ctrl.Checkpointer = nil
	run := newControlledRun(eval, ctrl, "brute-force", "")
	defer run.close()
	w := &walker{eval: eval, cfgs: grid.configs(space), chunk: randomChunk, archive: pareto.NewArchive(), keepAll: true}
	_, partial, err := run.loop([]islandEvolver{w}, len(w.cfgs), IslandOptions{})
	if err != nil {
		return nil, err
	}
	res := &Result{Front: w.points(), Evaluations: run.totalE(), Partial: partial}
	if !partial {
		res.AllPoints = w.all
	}
	return res, nil
}
