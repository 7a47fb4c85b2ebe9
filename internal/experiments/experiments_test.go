package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

func TestThreadCounts(t *testing.T) {
	w := ThreadCounts(machine.Westmere())
	if len(w) != 5 || w[0] != 1 || w[4] != 40 {
		t.Fatalf("Westmere threads = %v", w)
	}
	b := ThreadCounts(machine.Barcelona())
	if len(b) != 6 || b[5] != 32 {
		t.Fatalf("Barcelona threads = %v", b)
	}
}

func TestTileGridValues(t *testing.T) {
	vals := tileGridValues(1400, 24)
	if vals[0] != 1 || vals[len(vals)-1] != 700 {
		t.Fatalf("grid = %v", vals)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("grid not strictly increasing: %v", vals)
		}
	}
	if got := tileGridValues(2, 5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("degenerate grid = %v", got)
	}
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Westmere", "Barcelona", "30M", "2M", "4/40", "8/32"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf)
	for _, want := range []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body", "O(N^3)", "O(N^2)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
}

func TestFig1ShapeQuick(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		s, err := NewSweep(mm, m, Quick)
		if err != nil {
			t.Fatal(err)
		}
		speedup, eff := s.scaling()
		// Speedup monotone increasing, efficiency decreasing overall.
		for i := 1; i < len(speedup); i++ {
			if speedup[i] < speedup[i-1] {
				t.Errorf("%s: speedup dropped at %d threads", m.Name, s.Threads[i])
			}
		}
		last := len(eff) - 1
		if eff[last] >= eff[0] {
			t.Errorf("%s: efficiency did not decay: %v", m.Name, eff)
		}
		var buf bytes.Buffer
		s.Fig1(&buf)
		if !strings.Contains(buf.String(), "Speedup") {
			t.Error("Fig 1 rendering broken")
		}
	}
}

func TestFig2OptimaShiftWithThreads(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	f1, err := Fig2(mm, m, 1, Full)
	if err != nil {
		t.Fatal(err)
	}
	f40, err := Fig2(mm, m, 40, Full)
	if err != nil {
		t.Fatal(err)
	}
	// The best (t1, t2) should differ between 1 and 40 threads —
	// the paper's Fig. 2 observation.
	if f1.BestT1 == f40.BestT1 && f1.BestT2 == f40.BestT2 {
		t.Errorf("tile optimum did not shift: 1t=(%d,%d) 40t=(%d,%d)",
			f1.BestT1, f1.BestT2, f40.BestT1, f40.BestT2)
	}
	var buf bytes.Buffer
	f40.Render(&buf)
	if !strings.Contains(buf.String(), "darker = faster") {
		t.Error("Fig 2 rendering broken")
	}
}

func TestTable2Quick(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	s, err := NewSweep(mm, m, Quick)
	if err != nil {
		t.Fatal(err)
	}
	loss, untiled := s.Loss()
	nT := len(ThreadCounts(m))
	if len(s.Best) != nT || len(loss) != nT {
		t.Fatalf("dims wrong: %d bests", len(s.Best))
	}
	// Diagonal is zero; off-diagonal losses non-negative; at least one
	// positive loss exists (thread-specific tuning matters).
	anyPositive := false
	for i := range loss {
		if loss[i][i] != 0 {
			t.Errorf("diagonal loss [%d][%d] = %v", i, i, loss[i][i])
		}
		for j := range loss[i] {
			if loss[i][j] < 0 {
				t.Errorf("negative loss at [%d][%d]", i, j)
			}
			if i != j && loss[i][j] > 0.001 {
				anyPositive = true
			}
		}
	}
	if !anyPositive {
		t.Error("no cross-thread loss found; multi-versioning would be pointless")
	}
	// The untiled row shows the enormous tiling gap.
	for j, u := range untiled {
		if u < 0.5 {
			t.Errorf("untiled loss at column %d = %.2f, want > 0.5", j, u)
		}
	}
	var buf bytes.Buffer
	s.Table2(&buf)
	if !strings.Contains(buf.String(), "untiled -O3") {
		t.Error("Table II rendering broken")
	}
}

func TestTable3Quick(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	s, err := NewSweep(mm, machine.Barcelona(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	speedup, eff := s.scaling()
	if speedup[0] != 1 || eff[0] != 1 {
		t.Fatalf("1-thread row: speedup %v, efficiency %v", speedup[0], eff[0])
	}
	last := len(speedup) - 1
	if speedup[last] <= 1 || eff[last] >= 1 {
		t.Fatalf("last row: speedup %v, efficiency %v", speedup[last], eff[last])
	}
	// Relative resources grow with thread count (efficiency decays).
	relResources := func(i int) float64 { return float64(s.Threads[i]) * s.time(i) / s.time(0) }
	if relResources(last) <= relResources(0) {
		t.Errorf("relative resources did not grow: %v -> %v", relResources(0), relResources(last))
	}
	var buf bytes.Buffer
	s.Table3(&buf)
	if !strings.Contains(buf.String(), "Efficiency") {
		t.Error("Table III rendering broken")
	}
}

func TestTable5QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps all kernels")
	}
	nb, _ := kernels.ByName("n-body")
	row := func(m *machine.Machine) (avg, oneTMax float64) {
		s, err := NewSweep(nb, m, Quick)
		if err != nil {
			t.Fatal(err)
		}
		_, avg, oneTMax = table5Row(s)
		return avg, oneTMax
	}
	// The paper's headline asymmetry: n-body nearly flat on Westmere,
	// large losses on Barcelona.
	wAvg, wMax := row(machine.Westmere())
	bAvg, bMax := row(machine.Barcelona())
	if wAvg > 0.05 {
		t.Errorf("Westmere n-body avg loss = %.3f, want ~0 (fits the 30 MB L3)", wAvg)
	}
	if bAvg < 0.05 {
		t.Errorf("Barcelona n-body avg loss = %.3f, want clearly positive", bAvg)
	}
	if bAvg < 5*wAvg {
		t.Errorf("Barcelona n-body (%.3f) should dwarf Westmere (%.3f)", bAvg, wAvg)
	}
	if bMax < wMax {
		t.Error("Barcelona n-body 1tmax should exceed Westmere's")
	}
	if bMax < 0.5 {
		t.Errorf("Barcelona n-body 1tmax = %.2f, want the paper's catastrophic loss (> 50%%)", bMax)
	}
	var buf bytes.Buffer
	if err := Table5(&buf, machine.Westmere(), Quick); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1tmax") {
		t.Error("Table V rendering broken")
	}
}

func TestFig8Quick(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	s, err := NewSweep(mm, m, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Objs) == 0 {
		t.Fatal("no points")
	}
	for i, objs := range s.Objs {
		if len(objs) != len(ThreadCounts(m)) {
			t.Fatalf("tile set %v has points at %d thread counts", s.Tiles[i], len(objs))
		}
	}
	// Higher thread counts reach lower times but higher resource
	// minima (the paper's Fig. 8 structure).
	minTime := func(t int) float64 {
		best := s.Objs[0][t][0]
		for _, objs := range s.Objs {
			best = min(best, objs[t][0])
		}
		return best
	}
	if minTime(len(s.Threads)-1) >= minTime(0) {
		t.Error("40 threads should reach lower times than 1 thread")
	}
	var buf bytes.Buffer
	s.Fig8(&buf)
	if !strings.Contains(buf.String(), "resource usage") {
		t.Error("Fig 8 rendering broken")
	}
}

func TestTable6KernelQuick(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	c, err := Table6([]*kernels.Kernel{mm}, m, Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	bf, rnd, rs := c.Runs[0], c.Runs[1], c.Runs[2]
	if bf.Label != "brute force" || rnd.Label != "random" || rs.Label != "RS-GDE3" || len(rs.Results) != 2 {
		t.Fatalf("runs %s, %s, %s (%d repetitions)", bf.Label, rnd.Label, rs.Label, len(rs.Results))
	}
	// The paper's central claims (Quick mode shrinks the brute-force
	// grid, so only the ordering is asserted here; the 90-99%
	// reduction is checked at full budget in the root-level
	// integration test).
	// 1. RS-GDE3 uses fewer evaluations than brute force.
	if rs.E >= bf.E {
		t.Errorf("RS-GDE3 E = %.0f not below BF %.0f", rs.E, bf.E)
	}
	// 2. RS-GDE3 hypervolume is comparable to brute force.
	if rs.V < 0.7*bf.V {
		t.Errorf("RS-GDE3 V = %.3f vs BF %.3f", rs.V, bf.V)
	}
	// 3. RS-GDE3 clearly outperforms random search at equal budget.
	if rs.V <= rnd.V {
		t.Errorf("RS-GDE3 V = %.3f not above random %.3f", rs.V, rnd.V)
	}
	// 4. RS-GDE3 returns more solutions than brute force (the paper's
	// first conclusion in §V-C).
	if rs.S < bf.S {
		t.Errorf("RS-GDE3 |S| = %.1f below brute force %.1f", rs.S, bf.S)
	}
	var buf bytes.Buffer
	Fig9(&buf, m, c, "mm")
	if !strings.Contains(buf.String(), "RS-GDE3") {
		t.Error("Fig 9 rendering broken")
	}
	if _, err := Table6([]*kernels.Kernel{mm}, m, Quick, 0); err == nil {
		t.Error("Table VI ran with no repetitions")
	}
}

// TestTileGridPoints pins the full-mode grid densities to the paper's
// Table VI evaluation counts (quick mode shrinks them for CI).
func TestTileGridPoints(t *testing.T) {
	cases := []struct {
		kernel string
		mode   Mode
		want   int
	}{
		{"jacobi-2d", Full, 69},
		{"n-body", Full, 72},
		{"3d-stencil", Full, 13},
		{"mm", Full, 24},
		{"jacobi-2d", Quick, 12},
		{"mm", Quick, 7},
	}
	for _, c := range cases {
		k, err := kernels.ByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		if got := tileGridPoints(k, c.mode); got != c.want {
			t.Errorf("tileGridPoints(%s, %v) = %d, want %d", c.kernel, c.mode, got, c.want)
		}
	}
}

// TestFigureExportsWriteTheirFiles pins the file names of -export:
// each Fig. 2 panel and Fig. 8 as CSV (the panel with a gnuplot
// script), Fig. 9 as one CSV per strategy plus a script plotting them.
func TestFigureExportsWriteTheirFiles(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	dir := t.TempDir()
	f2, err := Fig2(mm, m, 40, Quick)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSweep(mm, m, Quick)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Table6([]*kernels.Kernel{mm}, m, Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{f2.Export(dir), s.ExportFig8(dir), ExportFig9(dir, m, c, "mm"), f2.Export("")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{
		"fig2_Westmere_40t.csv", "fig2_Westmere_40t.gp", "fig8_Westmere.csv",
		"fig9_Westmere.gp", "fig9_Westmere_bruteforce.csv", "fig9_Westmere_random.csv", "fig9_Westmere_rsgde3.csv",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("exported %v, want %v", got, want)
	}
	gp, err := os.ReadFile(filepath.Join(dir, "fig9_Westmere.gp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want[4:] {
		if !strings.Contains(string(gp), filepath.Join(dir, name)) {
			t.Errorf("fig9_Westmere.gp does not plot %s:\n%s", name, gp)
		}
	}
}
