package optimizer

import (
	"math"

	"autotune/internal/skeleton"
)

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

// gridWalk is the list the registered "grid" strategy walks: a
// deterministic coarse grid subsample of at most budget configurations,
// the systematic counterpart of the random draw. The per-dimension
// point count is derived from the budget (RandomBudget, the shared
// walker knob) so a grid contender races at the same cost as the random
// one, and the grid is visited in a coprime-strided order rather than
// lexicographically: after any prefix of the budget the visited points
// spread across the whole space instead of crawling along the first
// dimension, which is what makes a truncated sweep a usable racing
// contender. The walk is fully determined by the space and the budget
// — the seed is ignored.
func gridWalk(space skeleton.Space, cfg StrategyConfig, _ int64) []skeleton.Config {
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
	return cfgs
}
