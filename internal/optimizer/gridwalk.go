package optimizer

import (
	"math"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// gridWalker is the registered "grid" strategy: a deterministic coarse
// grid-subsampling sweep on the stepping evolver surface, the
// systematic counterpart of randomWalker. The per-dimension point
// count is derived from RandomBudget (the shared walker budget knob)
// so a grid contender races at the same cost as the random one, and
// the grid is visited in a coprime-strided order rather than
// lexicographically: after any prefix of the budget the visited points
// spread across the whole space instead of crawling along the first
// dimension, which is what makes a truncated sweep a usable racing
// contender. The walk is fully determined by the space and the budget
// — the seed is ignored.
type gridWalker struct {
	eval    objective.Evaluator
	cfgs    []skeleton.Config
	chunk   int
	next    int
	archive *pareto.Archive
}

// gridWalkerPoints derives the per-dimension point count: the largest
// k with k^dim <= budget, clamped to each dimension's span, never
// below 2 (a 1-point dimension pins the parameter to its minimum and
// explores nothing).
func gridWalkerPoints(space skeleton.Space, budget int) []int {
	d := space.Dim()
	k := int(math.Floor(math.Pow(float64(budget), 1/float64(d))))
	for k > 1 && pow(k, d) > budget {
		k--
	}
	if k < 2 {
		k = 2
	}
	points := make([]int, d)
	for i := range points {
		points[i] = k
	}
	return points
}

func pow(k, d int) int {
	out := 1
	for i := 0; i < d; i++ {
		out *= k
	}
	return out
}

// stridedOrder visits 0..n-1 by a fixed stride coprime to n (near the
// golden-ratio fraction of n, the classic low-discrepancy choice), so
// every prefix of the walk is spread uniformly over the index range.
func stridedOrder(n int) []int {
	if n <= 0 {
		return nil
	}
	stride := int(math.Round(float64(n) * 0.6180339887498949))
	if stride < 1 {
		stride = 1
	}
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]int, n)
	at := 0
	for i := range out {
		out[i] = at
		at = (at + stride) % n
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newGridWalker(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, _ int64) islandEvolver {
	grid, err := RegularGrid(space, gridWalkerPoints(space, cfg.RandomBudget))
	if err != nil {
		// Unreachable for a validated space: point counts are >= 2.
		panic(err)
	}
	all := grid.configs(space)
	cfgs := make([]skeleton.Config, 0, len(all))
	for _, i := range stridedOrder(len(all)) {
		cfgs = append(cfgs, all[i])
	}
	if len(cfgs) > cfg.RandomBudget {
		cfgs = cfgs[:cfg.RandomBudget]
	}
	return &gridWalker{eval: eval, cfgs: cfgs, chunk: walkerChunk(cfg), archive: pareto.NewArchive()}
}

func (g *gridWalker) step() {
	hi := g.next + g.chunk
	if hi > len(g.cfgs) {
		hi = len(g.cfgs)
	}
	batch := g.cfgs[g.next:hi]
	g.next = hi
	objs := g.eval.Evaluate(batch)
	for i, o := range objs {
		if o != nil {
			g.archive.Add(pareto.Point{Payload: batch[i], Objectives: o})
		}
	}
}

func (g *gridWalker) done() bool { return g.next >= len(g.cfgs) }

func (g *gridWalker) elites(int) []individual { return nil }

func (g *gridWalker) inject([]individual) {}

func (g *gridWalker) points() []pareto.Point { return g.archive.Points() }

// snapshot is never called: the grid strategy registers no Restore
// hook, so checkpointing is disabled for it.
func (g *gridWalker) snapshot() IslandState { return IslandState{} }

func init() {
	RegisterStrategy(Strategy{
		Name: "grid",
		New:  newGridWalker,
		Fingerprint: func(space skeleton.Space, cfg StrategyConfig, islands int, iopt IslandOptions) string {
			return fingerprintOf("grid", spaceKey(space), cfg.RandomBudget, islands)
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
}
