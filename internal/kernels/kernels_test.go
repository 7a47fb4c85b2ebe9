package kernels

import (
	"math"
	"testing"

	"autotune/internal/ir"
	"autotune/internal/machine"
	"autotune/internal/perfmodel"
	"autotune/internal/polyhedral"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"2mm", "3d-stencil", "atax", "dsyrk", "jacobi-2d", "mm", "n-body"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("kernels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernels = %v, want %v", got, want)
		}
	}
	paper := Paper()
	if len(paper) != 5 {
		t.Fatalf("Paper() = %d kernels, want the paper's 5", len(paper))
	}
	for _, k := range paper {
		if k.Extension {
			t.Fatalf("Paper() contains extension %s", k.Name)
		}
	}
	if len(All()) != 7 {
		t.Fatal("All() wrong")
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("mm")
	if err != nil || k.Name != "mm" {
		t.Fatalf("ByName(mm) = %v, %v", k, err)
	}
	if _, err := ByName("fft"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestTableIVComplexities(t *testing.T) {
	cases := map[string]Complexity{
		"2mm":        {Compute: "O(N^3)", Memory: "O(N^2)"},
		"atax":       {Compute: "O(N^2)", Memory: "O(N^2)"},
		"mm":         {Compute: "O(N^3)", Memory: "O(N^2)"},
		"dsyrk":      {Compute: "O(N^3)", Memory: "O(N^2)"},
		"jacobi-2d":  {Compute: "O(N^2)", Memory: "O(N^2)"},
		"3d-stencil": {Compute: "O(N^3)", Memory: "O(N^3)"},
		"n-body":     {Compute: "O(N^2)", Memory: "O(N)"},
	}
	for name, want := range cases {
		k, _ := ByName(name)
		if k.Complexity != want {
			t.Errorf("%s complexity = %+v, want %+v", name, k.Complexity, want)
		}
	}
}

func TestIRProgramsValid(t *testing.T) {
	for _, k := range All() {
		p := k.IR(32)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid IR: %v", k.Name, err)
		}
		loops, stmts := ir.PerfectNest(p.Root[0])
		if len(loops) < 2 || len(stmts) == 0 {
			t.Errorf("%s: unexpected nest shape %d loops %d stmts", k.Name, len(loops), len(stmts))
		}
	}
}

func TestIRLegality(t *testing.T) {
	// Every kernel's nest must be tilable over at least TileDims loops
	// and parallelizable at the outermost loop.
	for _, k := range All() {
		p := k.IR(32)
		loops, stmts := ir.PerfectNest(p.Root[0])
		deps := polyhedral.Analyze(loops, stmts)
		band := polyhedral.MaxTilableBand(deps, len(loops))
		if band < k.TileDims {
			t.Errorf("%s: tilable band %d < tile dims %d", k.Name, band, k.TileDims)
		}
		if !polyhedral.ParallelLoop(deps, 0) {
			t.Errorf("%s: outermost loop not parallel", k.Name)
		}
		// The reductions of atax and n-body carry a dependence over
		// their second loop; every other kernel collapses.
		want := k.Name != "atax" && k.Name != "n-body"
		if got := polyhedral.CollapsibleLoops(loops, deps, 0); got != want {
			t.Errorf("%s: collapsible outer loops %v, want %v", k.Name, got, want)
		}
	}
}

func TestModelsValidate(t *testing.T) {
	for _, k := range All() {
		if err := k.Model.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
		if k.Model.TileDims != k.TileDims {
			t.Errorf("%s: model dims %d != kernel dims %d", k.Name, k.Model.TileDims, k.TileDims)
		}
	}
}

func TestModelSanity(t *testing.T) {
	for _, k := range All() {
		n := k.BenchN
		if f := k.Model.Flops(n); f <= 0 {
			t.Errorf("%s: flops = %v", k.Name, f)
		}
		if a := k.Model.Accesses(n); a <= 0 {
			t.Errorf("%s: accesses = %v", k.Name, a)
		}
		tiles := make([]int64, k.TileDims)
		for i := range tiles {
			tiles[i] = 16
		}
		if ws := k.Model.WorkingSet(n, tiles); ws <= 0 {
			t.Errorf("%s: working set = %d", k.Name, ws)
		}
		if it := k.Model.ParIters(n, tiles); it <= 0 {
			t.Errorf("%s: par iters = %d", k.Name, it)
		}
		if d := k.Model.TotalData(n); d <= 0 {
			t.Errorf("%s: total data = %d", k.Name, d)
		}
	}
}

// Larger caches never see more traffic: LevelTraffic must be
// non-increasing in capacity for every kernel.
func TestLevelTrafficMonotoneInCapacity(t *testing.T) {
	for _, k := range All() {
		n := k.DefaultN
		tileSets := [][]int64{}
		base := []int64{8, 64, 16, 128, 32}
		for _, t0 := range base[:3] {
			tiles := make([]int64, k.TileDims)
			for i := range tiles {
				tiles[i] = t0 * int64(i+1)
			}
			tileSets = append(tileSets, tiles)
		}
		for _, tiles := range tileSets {
			prev := math.Inf(1)
			for capBytes := int64(1 << 10); capBytes <= 1<<30; capBytes *= 2 {
				c := perfmodel.Capacity{PerThread: capBytes, Total: capBytes, Sharers: 1}
				tr := k.Model.LevelTraffic(n, tiles, c)
				if tr < 0 || math.IsNaN(tr) {
					t.Fatalf("%s: traffic = %v", k.Name, tr)
				}
				if tr > prev*1.0000001 {
					t.Errorf("%s tiles %v: traffic grew from %v to %v at cap %d",
						k.Name, tiles, prev, tr, capBytes)
					break
				}
				prev = tr
			}
		}
	}
}

// bestTiles finds the best configuration on a coarse grid for the
// given kernel, machine and thread count.
func bestTiles(t *testing.T, k *Kernel, m *machine.Machine, threads int, grid []int64) ([]int64, float64) {
	t.Helper()
	mo := perfmodel.New(m)
	best := math.Inf(1)
	var bestT []int64
	var rec func(prefix []int64)
	rec = func(prefix []int64) {
		if len(prefix) == k.TileDims {
			tm, err := mo.TimeUnrolled(k.Model, k.DefaultN, prefix, threads, 1, 0)
			if err != nil {
				return
			}
			if tm < best {
				best = tm
				bestT = append([]int64(nil), prefix...)
			}
			return
		}
		for _, g := range grid {
			if g > k.DefaultN {
				continue
			}
			rec(append(prefix, g))
		}
	}
	rec(nil)
	if bestT == nil {
		t.Fatalf("%s: no valid configuration found", k.Name)
	}
	return bestT, best
}

var coarseGrid = []int64{8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// Paper Fig. 1 / Table III shape: speedup grows monotonically with the
// thread count while efficiency decays.
func TestMMSpeedupEfficiencyShape(t *testing.T) {
	mm, _ := ByName("mm")
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		threadsList := []int{1, 5, 10, 20, 40}
		if m.Name == "Barcelona" {
			threadsList = []int{1, 2, 4, 8, 16, 32}
		}
		var tseq float64
		prevSpeedup := 0.0
		prevEff := 1.1
		for _, th := range threadsList {
			_, tm := bestTiles(t, mm, m, th, coarseGrid)
			if th == 1 {
				tseq = tm
			}
			sp := perfmodel.Speedup(tseq, tm)
			eff := perfmodel.Efficiency(tseq, tm, th)
			if sp < prevSpeedup {
				t.Errorf("%s: speedup not monotone at %d threads (%v < %v)", m.Name, th, sp, prevSpeedup)
			}
			if eff > prevEff+0.02 {
				t.Errorf("%s: efficiency increased at %d threads (%v > %v)", m.Name, th, eff, prevEff)
			}
			prevSpeedup, prevEff = sp, eff
		}
		// Efficiency at the largest thread count is clearly below 1.
		if prevEff > 0.9 {
			t.Errorf("%s: efficiency at max threads = %v, want < 0.9", m.Name, prevEff)
		}
	}
}

// Paper Table II shape: a configuration tuned for one thread count
// loses performance at another.
func TestMMCrossThreadLossExists(t *testing.T) {
	mm, _ := ByName("mm")
	m := machine.Westmere()
	mo := perfmodel.New(m)
	t1Tiles, _ := bestTiles(t, mm, m, 1, coarseGrid)
	_, best40 := bestTiles(t, mm, m, 40, coarseGrid)
	cross, err := mo.TimeUnrolled(mm.Model, mm.DefaultN, t1Tiles, 40, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cross < best40 {
		t.Fatalf("1-thread tiles cannot beat 40-thread optimum: %v < %v", cross, best40)
	}
	loss := cross/best40 - 1
	if loss < 0.01 {
		t.Errorf("cross-thread loss = %.3f, want noticeable (> 1%%)", loss)
	}
}

// Paper Table V shape: n-body is insensitive to thread-specific tuning
// on Westmere (fits the 30 MB L3) but highly sensitive on Barcelona
// (2 MB L3).
func TestNBodyAsymmetryAcrossMachines(t *testing.T) {
	nb, _ := ByName("n-body")
	grid := []int64{64, 256, 1024, 4096, 16384}
	crossLoss := func(m *machine.Machine, fromThreads, toThreads int) float64 {
		mo := perfmodel.New(m)
		fromTiles, _ := bestTiles(t, nb, m, fromThreads, grid)
		_, bestTo := bestTiles(t, nb, m, toThreads, grid)
		cross, err := mo.TimeUnrolled(nb.Model, nb.DefaultN, fromTiles, toThreads, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cross/bestTo - 1
	}
	wLoss := crossLoss(machine.Westmere(), 1, 40)
	bLoss := crossLoss(machine.Barcelona(), 1, 32)
	if wLoss > 0.10 {
		t.Errorf("Westmere n-body cross loss = %.3f, want ~0 (fits L3)", wLoss)
	}
	if bLoss < 0.5 {
		t.Errorf("Barcelona n-body cross loss = %.3f, want large (tiny L3)", bLoss)
	}
}

// The untiled configuration is far slower than the tuned one — the
// "GCC -O3 baseline" row of Table II.
func TestUntiledGap(t *testing.T) {
	mm, _ := ByName("mm")
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		mo := perfmodel.New(m)
		_, best := bestTiles(t, mm, m, 1, coarseGrid)
		untiled, err := mo.TimeUnrolled(mm.Model, mm.DefaultN, []int64{mm.DefaultN, mm.DefaultN, mm.DefaultN}, 1, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if untiled/best < 3 {
			t.Errorf("%s: untiled/tiled = %.2f, want the enormous tiling gap (> 3x)", m.Name, untiled/best)
		}
	}
}

// dsyrk's aligned streams make its untiled fallback far less
// catastrophic than mm's column-walking one.
func TestDsyrkAlignedStreamsBeatMMUntiled(t *testing.T) {
	mm, _ := ByName("mm")
	dk, _ := ByName("dsyrk")
	m := machine.Westmere()
	mo := perfmodel.New(m)
	n := int64(1400)
	mmUntiled, _ := mo.TimeUnrolled(mm.Model, n, []int64{n, n, n}, 1, 1, 0)
	dkUntiled, _ := mo.TimeUnrolled(dk.Model, n, []int64{n, n, n}, 1, 1, 0)
	if dkUntiled >= mmUntiled {
		t.Fatalf("dsyrk untiled (%v) should beat mm untiled (%v)", dkUntiled, mmUntiled)
	}
}

func TestRunnersProduceConsistentChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("real kernel execution")
	}
	for _, k := range All() {
		n := k.BenchN / 4
		if n < 8 {
			n = 8
		}
		tiles := make([]int64, k.TileDims)
		for i := range tiles {
			tiles[i] = 16
		}
		seq, err := k.Run(n, tiles, 1)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		par, err := k.Run(n, tiles, 4)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if math.Abs(seq-par) > 1e-6*math.Max(1, math.Abs(seq)) {
			t.Errorf("%s: parallel checksum %v != sequential %v", k.Name, par, seq)
		}
		// Different tiling, same result.
		tiles2 := make([]int64, k.TileDims)
		for i := range tiles2 {
			tiles2[i] = 7
		}
		alt, err := k.Run(n, tiles2, 3)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if math.Abs(seq-alt) > 1e-6*math.Max(1, math.Abs(seq)) {
			t.Errorf("%s: tiled checksum %v != reference %v", k.Name, alt, seq)
		}
	}
}

// TestRunnerChecksumsPinned pins every runner's exact checksum at one
// problem size and tiling on 1, 3 and 4 threads: how the parallel loop
// is split among the goroutines must not move a bit of the result.
func TestRunnerChecksumsPinned(t *testing.T) {
	want := map[string][3]float64{
		"2mm":        {68757.5625, 68757.5625, 68757.5625},
		"3d-stencil": {5259.345524714875, 5259.345524714875, 5259.345524714875},
		"atax":       {395.4375, 395.4375, 395.4375},
		"dsyrk":      {220, 220, 220},
		"jacobi-2d":  {115.01658439028466, 115.01658439028466, 115.01658439028466},
		"mm":         {1246.25, 1246.25, 1246.25},
		"n-body":     {49.92874698641532, 49.92874698641532, 49.92874698641532},
	}
	for _, k := range All() {
		tiles := []int64{8, 5, 11}[:k.TileDims]
		for i, threads := range []int{1, 3, 4} {
			got, err := k.Run(37, tiles, threads)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if got != want[k.Name][i] {
				t.Errorf("%s on %d threads: checksum %v, want %v", k.Name, threads, got, want[k.Name][i])
			}
		}
	}
}

func TestRunnersRejectBadArguments(t *testing.T) {
	for _, k := range All() {
		if _, err := k.Run(64, nil, 1); err == nil {
			t.Errorf("%s: nil tiles accepted", k.Name)
		}
		tiles := make([]int64, k.TileDims)
		for i := range tiles {
			tiles[i] = 8
		}
		if _, err := k.Run(64, tiles, 0); err == nil {
			t.Errorf("%s: 0 threads accepted", k.Name)
		}
	}
}

func TestCeilDivAndClip(t *testing.T) {
	if ceilDiv(10, 3) != 4 || ceilDiv(9, 3) != 3 || ceilDiv(10, 0) != 10 {
		t.Error("ceilDiv wrong")
	}
	if clip(0, 10) != 1 || clip(5, 10) != 5 || clip(20, 10) != 10 {
		t.Error("clip wrong")
	}
}
