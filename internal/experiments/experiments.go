// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V) on the simulated machines: Fig. 1
// (speedup/efficiency trade-off), Fig. 2 (tile-size heat maps per
// thread count), Table I (machines), Table II (optimal tiles and
// cross-thread loss), Table III (Pareto-point properties), Table IV
// (kernel complexities), Table V (per-kernel thread-specific tuning
// impact), Table VI (brute force vs random vs RS-GDE3) and Figs. 8/9
// (objective-space plots and fronts).
//
// Each experiment returns structured data plus a text rendering, so the
// same code backs the cmd/repro binary, the integration tests and the
// benchmark harness. A Quick mode shrinks grids and repetition counts
// for CI-speed runs; Full mode approximates the paper's evaluation
// budgets (e.g. ~14k tile configurations per thread count for mm).
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// Mode selects the evaluation budget.
type Mode int

const (
	// Quick shrinks grids for fast CI runs.
	Quick Mode = iota
	// Full approximates the paper's budgets.
	Full
)

// NoiseAmp is the deterministic measurement-noise amplitude used by
// all experiments, mirroring run-to-run variation on a real testbed.
const NoiseAmp = 0.01

// ThreadCounts returns the per-machine thread counts the paper
// evaluates: {1,5,10,20,40} on Westmere, {1,2,4,8,16,32} on Barcelona.
func ThreadCounts(m *machine.Machine) []int {
	if m.Name == "Barcelona" {
		return []int{1, 2, 4, 8, 16, 32}
	}
	return []int{1, 5, 10, 20, 40}
}

// tileGridPoints returns the per-tile-dimension grid sizes used by the
// brute-force sweeps, chosen so the total evaluation counts land near
// the paper's Table VI E column.
func tileGridPoints(k *kernels.Kernel, mode Mode) int {
	if mode == Quick {
		if k.TileDims == 2 {
			return 12
		}
		return 7
	}
	switch k.TileDims {
	case 2:
		if k.Name == "jacobi-2d" {
			return 69 // 69² × thread counts ≈ paper's 23805 evaluations
		}
		return 72 // n-body: 72² ≈ paper's 26136
	default:
		if k.Name == "3d-stencil" {
			return 13 // 13³ ≈ paper's 10580
		}
		return 24 // mm/dsyrk: 24³ ≈ paper's 71290
	}
}

// search runs one registered strategy serially, without run control —
// how every experiment compares strategies through the one engine.
func search(name string, space skeleton.Space, eval objective.Evaluator, cfg optimizer.StrategyConfig) (*optimizer.Result, error) {
	return optimizer.Run(space, eval, optimizer.Spec{Strategy: name, Config: cfg}, optimizer.Control{})
}

// randomSearch is the paper's random baseline at the given budget.
func randomSearch(space skeleton.Space, eval objective.Evaluator, budget int, seed int64) (*optimizer.Result, error) {
	return search("random", space, eval, optimizer.StrategyConfig{Options: optimizer.Options{Seed: seed}, RandomBudget: budget})
}

// tuningSpace builds the search space the optimizers and grids use for
// a kernel on a machine: tile sizes in [1, N/2], threads in
// [1, cores] — the paper's §V-B.3 restrictions.
func tuningSpace(k *kernels.Kernel, m *machine.Machine) skeleton.Space {
	n := k.DefaultN
	var params []skeleton.Param
	for i := 0; i < k.TileDims; i++ {
		params = append(params, skeleton.Param{
			Name: fmt.Sprintf("t%d", i+1), Kind: skeleton.TileSize, Min: 1, Max: n / 2,
		})
	}
	params = append(params, skeleton.Param{
		Name: "threads", Kind: skeleton.ThreadCount, Min: 1, Max: int64(m.Cores()),
	})
	return skeleton.Space{Params: params}
}

// newEvaluator builds the simulated evaluator for a kernel/machine.
func newEvaluator(k *kernels.Kernel, m *machine.Machine) (*objective.Sim, error) {
	return objective.NewSim(objective.SimConfig{
		Machine:  m,
		Kernel:   k,
		NoiseAmp: NoiseAmp,
	})
}

// tileGridValues spaces `points` tile sizes over [1, n/2], denser at
// the small end (geometric-ish), always including 1 and n/2.
func tileGridValues(n int64, points int) []int64 {
	maxT := n / 2
	if maxT < 1 {
		maxT = 1
	}
	if points < 2 || maxT == 1 {
		return []int64{maxT}
	}
	// Geometric spacing captures the cache-relevant small sizes the
	// paper's optimal configurations live at.
	vals := make([]int64, 0, points)
	ratio := math.Pow(float64(maxT), 1/float64(points-1))
	cur := 1.0
	for i := 0; i < points; i++ {
		v := int64(math.Round(cur))
		if v < 1 {
			v = 1
		}
		if v > maxT {
			v = maxT
		}
		if len(vals) == 0 || v != vals[len(vals)-1] {
			vals = append(vals, v)
		}
		cur *= ratio
	}
	if vals[len(vals)-1] != maxT {
		vals = append(vals, maxT)
	}
	return vals
}

// bruteForceGrid builds the full sweep grid: tile values per tile
// dimension plus the paper's thread counts.
func bruteForceGrid(k *kernels.Kernel, m *machine.Machine, mode Mode) optimizer.Grid {
	points := tileGridPoints(k, mode)
	tileVals := tileGridValues(k.DefaultN, points)
	grid := make(optimizer.Grid, 0, k.TileDims+1)
	for i := 0; i < k.TileDims; i++ {
		grid = append(grid, append([]int64(nil), tileVals...))
	}
	var threads []int64
	for _, t := range ThreadCounts(m) {
		threads = append(threads, int64(t))
	}
	grid = append(grid, threads)
	return grid
}

// tileOnlyGrid is the grid restricted to tile dimensions (no thread
// dimension), for per-thread-count sweeps.
func tileOnlyGrid(k *kernels.Kernel, mode Mode) [][]int64 {
	points := tileGridPoints(k, mode)
	tileVals := tileGridValues(k.DefaultN, points)
	grid := make([][]int64, k.TileDims)
	for i := range grid {
		grid[i] = append([]int64(nil), tileVals...)
	}
	return grid
}

// BestConfig is the optimum found for one thread count.
type BestConfig struct {
	Threads int
	Tiles   []int64
	Time    float64
}

// bestPerThreadCount exhaustively sweeps the tile grid separately for
// every thread count (the paper's "brute force" §V-B.1) and returns
// the per-thread-count optimum, preferring — among near-ties — the
// configuration appearing first in grid order.
func bestPerThreadCount(k *kernels.Kernel, m *machine.Machine, mode Mode) ([]BestConfig, error) {
	eval, err := newEvaluator(k, m)
	if err != nil {
		return nil, err
	}
	grid := tileOnlyGrid(k, mode)
	var tileSets [][]int64
	cur := make([]int64, k.TileDims)
	var rec func(d int)
	rec = func(d int) {
		if d == k.TileDims {
			tileSets = append(tileSets, append([]int64(nil), cur...))
			return
		}
		for _, v := range grid[d] {
			cur[d] = v
			rec(d + 1)
		}
	}
	rec(0)

	var out []BestConfig
	for _, th := range ThreadCounts(m) {
		cfgs := make([]skeleton.Config, len(tileSets))
		for i, ts := range tileSets {
			cfgs[i] = append(append(skeleton.Config{}, ts...), int64(th))
		}
		objs := eval.Evaluate(cfgs)
		best := BestConfig{Threads: th, Time: math.Inf(1)}
		for i, o := range objs {
			if o == nil {
				continue
			}
			if o[0] < best.Time {
				best.Time = o[0]
				best.Tiles = tileSets[i]
			}
		}
		if best.Tiles == nil {
			return nil, fmt.Errorf("experiments: no valid configuration for %d threads", th)
		}
		out = append(out, best)
	}
	return out, nil
}

// evalTime evaluates one (tiles, threads) configuration's median time.
func evalTime(eval *objective.Sim, tiles []int64, threads int) (float64, error) {
	cfg := append(append(skeleton.Config{}, tiles...), int64(threads))
	objs := eval.EvaluateOne(cfg)
	if objs == nil {
		return 0, fmt.Errorf("experiments: configuration %v failed", cfg)
	}
	return objs[0], nil
}

// frontObjectives extracts objective vectors from a front.
func frontObjectives(front []pareto.Point) [][]float64 {
	out := make([][]float64, len(front))
	for i, p := range front {
		out[i] = p.Objectives
	}
	return out
}

// normalizedHV computes V(S) against pooled ideal/nadir bounds.
func normalizedHV(front []pareto.Point, ideal, nadir []float64) (float64, error) {
	return pareto.NormalizedHypervolume(frontObjectives(front), ideal, nadir)
}

// meanOf returns the arithmetic mean, tolerating empty input as 0.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := stats.Mean(xs)
	return m
}

// renderTable writes an aligned text table.
func renderTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// tilesString renders tile sizes compactly.
func tilesString(tiles []int64) string {
	parts := make([]string, len(tiles))
	for i, t := range tiles {
		parts[i] = fmt.Sprint(t)
	}
	return strings.Join(parts, "/")
}
