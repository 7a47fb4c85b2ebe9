package optimizer

import (
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
)

// sweepSim is the evaluator a brute-force reference sweep runs over: the
// simulated mm on Westmere at 1% noise, fresh, so every point of the
// sweep is evaluated.
func sweepSim(tb testing.TB) *objective.Sim {
	tb.Helper()
	mm, err := kernels.ByName("mm")
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := objective.NewSim(objective.SimConfig{Machine: machine.Westmere(), Kernel: mm, NoiseAmp: 0.01})
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// sweepGrid is a regular grid of benchSpace (mm's shape): points per
// tile dimension and threads thread counts.
func sweepGrid(tb testing.TB, points, threads int) Grid {
	tb.Helper()
	g, err := RegularGrid(benchSpace(), []int{points, points, points, threads})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestBruteForceAllocationBudget: a sweep over the simulated evaluator
// allocates at most one object per point it keeps — the boxing of its
// configuration into the point's payload — plus a constant per chunk of
// sweepChunk configurations: the configurations are cut from one slab,
// the kept points go into a list sized to the grid up front, and the
// evaluator's cache is grown to the grid's size once.
func TestBruteForceAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	grid := sweepGrid(t, 8, 10)
	points, chunks := grid.Size(), (grid.Size()+sweepChunk-1)/sweepChunk
	var kept int
	perSweep := testing.AllocsPerRun(3, func() {
		res, err := Run(benchSpace(), sweepSim(t), Spec{Strategy: "brute-force", Config: StrategyConfig{Grid: grid}}, Control{})
		if err != nil {
			t.Fatal(err)
		}
		kept = len(res.AllPoints)
	})
	if kept != points {
		t.Fatalf("the sweep kept %d points of %d", kept, points)
	}
	if budget := float64(kept) + 8*float64(chunks); perSweep > budget {
		t.Errorf("a sweep of %d points in %d chunks allocates %v times (%.2f a point), budget %v",
			points, chunks, perSweep, perSweep/float64(points), budget)
	}
}

// BenchmarkBruteForceSweep prices one brute-force sweep of a 12 × 12 ×
// 12 × 10 grid — 17,280 points — over a fresh simulated evaluator: the
// sweep's own work around the model, and the model.
func BenchmarkBruteForceSweep(b *testing.B) {
	grid := sweepGrid(b, 12, 10)
	spec := Spec{Strategy: "brute-force", Config: StrategyConfig{Grid: grid}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchSpace(), sweepSim(b), spec, Control{}); err != nil {
			b.Fatal(err)
		}
	}
}
