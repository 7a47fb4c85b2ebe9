package experiments

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/skeleton"
	"autotune/internal/validate"
)

// Table1 renders the machine configuration table (paper Table I).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table I: evaluated parallel computing systems (simulated)")
	header := []string{"System", "Sockets/Cores", "L1d/i", "L2", "L3", "Clock", "Kernel"}
	var rows [][]string
	for _, name := range machine.Names() {
		m, _ := machine.ByName(name)
		l1, _ := m.CacheByName("L1")
		l2, _ := m.CacheByName("L2")
		l3, _ := m.CacheByName("L3")
		rows = append(rows, []string{
			m.Name,
			fmt.Sprintf("%d/%d", m.Sockets, m.Cores()),
			fmt.Sprintf("%dK/%dK", l1.SizeBytes>>10, l1.SizeBytes>>10),
			fmt.Sprintf("%dK", l2.SizeBytes>>10),
			fmt.Sprintf("%dM", l3.SizeBytes>>20),
			fmt.Sprintf("%.1fGHz", m.ClockGHz),
			m.KernelVersion,
		})
	}
	renderTable(w, header, rows)
}

// Table4 renders the kernel complexity table (paper Table IV).
func Table4(w io.Writer) {
	fmt.Fprintln(w, "Table IV: investigated kernels")
	header := []string{"Kernel", "Computation", "Memory", "Problem size N"}
	var rows [][]string
	for _, k := range kernels.Paper() {
		rows = append(rows, []string{
			k.Name, k.Complexity.Compute, k.Complexity.Memory, fmt.Sprint(k.DefaultN),
		})
	}
	renderTable(w, header, rows)
}

// Fig2Result is one heat map of relative execution time over (t1, t2)
// for a fixed thread count and fixed remaining tile sizes.
type Fig2Result struct {
	Machine *machine.Machine
	Threads int
	T1, T2  []int64
	RelTime [][]float64 // normalized to the map's own minimum
	BestT1  int64
	BestT2  int64
	FixedT3 int64
}

// Fig2 reproduces one panel of Fig. 2: the relative execution time of
// (t1, t2) combinations at t3 = 9 for a given thread count, over 12
// tile sizes per dimension (7 in Quick mode).
func Fig2(k *kernels.Kernel, m *machine.Machine, threads int, mode Mode) (*Fig2Result, error) {
	eval, err := newEvaluator(k, m)
	if err != nil {
		return nil, err
	}
	points, fixedT3 := 12, int64(9)
	if mode == Quick {
		points = 7
	}
	vals := tileGridValues(k.DefaultN, points)
	res := &Fig2Result{
		Machine: m, Threads: threads, T1: vals, T2: vals, FixedT3: fixedT3,
	}
	best := math.Inf(1)
	res.RelTime = make([][]float64, len(vals))
	for i, t1 := range vals {
		res.RelTime[i] = make([]float64, len(vals))
		for j, t2 := range vals {
			cfg := skeleton.Config{t1, t2}
			if k.TileDims == 3 {
				cfg = append(cfg, fixedT3)
			}
			objs := eval.EvaluateOne(append(cfg, int64(threads)))
			if objs == nil {
				return nil, fmt.Errorf("experiments: configuration %v failed", cfg)
			}
			res.RelTime[i][j] = objs[0]
			if objs[0] < best {
				best = objs[0]
				res.BestT1, res.BestT2 = t1, t2
			}
		}
	}
	for i := range res.RelTime {
		for j := range res.RelTime[i] {
			res.RelTime[i][j] /= best
		}
	}
	return res, nil
}

// Render draws the heat map with ASCII shading (darker = faster, as in
// the paper).
func (r *Fig2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 2: relative time over (t1, t2), %d threads, t3=%d (%s); darker = faster\n",
		r.Threads, r.FixedT3, r.Machine.Name)
	shades := []byte("@#*+=-:. ") // fastest to slowest
	fmt.Fprintf(w, "best: t1=%d t2=%d\n", r.BestT1, r.BestT2)
	for i := range r.RelTime {
		var b strings.Builder
		for j := range r.RelTime[i] {
			rel := r.RelTime[i][j]
			idx := int((rel - 1) / 0.25)
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		fmt.Fprintf(w, "t1=%-6d |%s|\n", r.T1[i], b.String())
	}
}

// Export writes the panel into dir as CSV plus a gnuplot script; an
// empty dir writes nothing.
func (r *Fig2Result) Export(dir string) error {
	base := fmt.Sprintf("fig2_%s_%dt", r.Machine.Name, r.Threads)
	title := fmt.Sprintf("relative time, %d threads (%s)", r.Threads, r.Machine.Name)
	return writeFiles(dir, map[string]func(io.Writer) error{
		base + ".csv": func(w io.Writer) error { return export.HeatmapCSV(w, r.T1, r.T2, r.RelTime) },
		base + ".gp":  func(w io.Writer) error { return export.GnuplotHeatmap(w, title, filepath.Join(dir, base+".csv")) },
	})
}

// ValidationResult is the model-vs-simulator rank-agreement summary.
type ValidationResult struct {
	Reports []*validate.Report
}

// Validation cross-checks the analytical model against the cache
// simulator for the cheap-to-trace kernels at small problem sizes.
func Validation() (*ValidationResult, error) {
	// Problem sizes are chosen so the tile choice genuinely contrasts
	// at L1 (one matrix exceeds both machines' L1 capacities at N=96);
	// jacobi-2d at a single sweep is intentionally near-flat — the
	// simulator and the model must then agree on "everything ties".
	cases := []struct {
		kernel string
		n      int64
		sets   [][]int64
	}{
		{"mm", 96, [][]int64{{8, 8, 8}, {16, 16, 16}, {32, 32, 32}, {48, 48, 48}, {1, 1, 1}}},
		{"dsyrk", 96, [][]int64{{8, 8, 8}, {16, 16, 16}, {32, 32, 32}, {1, 1, 1}}},
		{"jacobi-2d", 128, [][]int64{{8, 8}, {16, 32}, {64, 64}, {128, 128}}},
	}
	out := &ValidationResult{}
	for _, c := range cases {
		k, err := kernels.ByName(c.kernel)
		if err != nil {
			return nil, err
		}
		reps, err := validate.CacheModel(k, []*machine.Machine{machine.Westmere(), machine.Barcelona()}, c.n, c.sets)
		if err != nil {
			return nil, err
		}
		out.Reports = append(out.Reports, reps...)
	}
	return out, nil
}

// Render writes the rank-agreement table.
func (v *ValidationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Model-vs-simulator validation: Kendall tau rank agreement of per-level traffic")
	header := []string{"Kernel", "Machine", "N", "L1", "L2", "L3"}
	var rows [][]string
	for _, rep := range v.Reports {
		rows = append(rows, []string{
			rep.Kernel, rep.Machine, fmt.Sprint(rep.N),
			fmt.Sprintf("%.2f", rep.RankAgreement["L1"]),
			fmt.Sprintf("%.2f", rep.RankAgreement["L2"]),
			fmt.Sprintf("%.2f", rep.RankAgreement["L3"]),
		})
	}
	renderTable(w, header, rows)
}
