// Package experiments regenerates every table and figure of the
// paper's evaluation (Section V) on the simulated machines, and the
// comparisons of the extensions built on it.
//
// The paper's results come in two shapes. Fig. 1, Tables II, III and V
// and Fig. 8 are views of one Sweep: every tile set of a grid evaluated
// at every thread count a machine is studied at. Table VI with Fig. 9
// and the extension comparisons (Extended, islands, racing, warm start,
// surrogate screening, checkpoint/resume) are each a declared list of
// labelled arms run on fresh evaluators per kernel, scored against the
// pooled bounds of their fronts and rendered as one Comparison. Table I
// (machines), Table IV (kernels), Fig. 2 (tile heat maps) and the
// model-vs-simulator Validation stand alone.
//
// Every experiment returns structured data that renders as text; the
// cmd/repro binary and the tests use both. Quick mode shrinks grids and
// budgets for CI-speed runs; Full mode approximates the paper's
// evaluation budgets (e.g. ~14k tile configurations per thread count
// for mm).
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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

// noiseAmp is the deterministic measurement-noise amplitude used by
// all experiments, mirroring run-to-run variation on a real testbed.
const noiseAmp = 0.01

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

// searchFresh runs a registered strategy on a fresh evaluator of k on m.
func searchFresh(k *kernels.Kernel, m *machine.Machine, name string, cfg optimizer.StrategyConfig) (*optimizer.Result, error) {
	eval, err := newEvaluator(k, m)
	if err != nil {
		return nil, err
	}
	return search(name, tuningSpace(k, m), eval, cfg)
}

// bruteForce evaluates the brute-force grid of k on m on a fresh
// evaluator: Table VI's baseline and the Sweep's points.
func bruteForce(k *kernels.Kernel, m *machine.Machine, mode Mode) (*optimizer.Result, error) {
	eval, err := newEvaluator(k, m)
	if err != nil {
		return nil, err
	}
	return search("brute-force", tuningSpace(k, m), eval, optimizer.StrategyConfig{Grid: bruteForceGrid(k, m, mode)})
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
		NoiseAmp: noiseAmp,
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
	tileVals := tileGridValues(k.DefaultN, tileGridPoints(k, mode))
	grid := make(optimizer.Grid, 0, k.TileDims+1)
	for i := 0; i < k.TileDims; i++ {
		grid = append(grid, tileVals)
	}
	var threads []int64
	for _, t := range ThreadCounts(m) {
		threads = append(threads, int64(t))
	}
	return append(grid, threads)
}

// frontObjectives extracts objective vectors from a front.
func frontObjectives(front []pareto.Point) [][]float64 {
	out := make([][]float64, len(front))
	for i, p := range front {
		out[i] = p.Objectives
	}
	return out
}

// meanOf returns the arithmetic mean, tolerating empty input as 0.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, _ := stats.Mean(xs)
	return m
}

// writeFiles writes each named file under dir with what its writer
// produces, for the figures' -export; an empty dir writes nothing.
func writeFiles(dir string, files map[string]func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	for name, write := range files {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
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
