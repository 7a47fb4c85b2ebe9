package validate

import (
	"testing"

	"autotune/internal/ir"
	"autotune/internal/machine"
	"autotune/internal/transform"
)

func vecAdd(n int64) *ir.Program {
	stmt := &ir.Stmt{
		Label:  "add",
		Writes: []ir.Access{{Array: "C", Indices: []ir.Affine{ir.Var("i")}}},
		Reads: []ir.Access{
			{Array: "A", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "B", Indices: []ir.Affine{ir.Var("i")}},
		},
		Flops: 1,
	}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	return &ir.Program{
		Name: "vecadd",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n}},
			{Name: "C", ElemBytes: 8, Dims: []int64{n}},
		},
		Root: []ir.Node{il},
	}
}

func mmProgram(n int64) *ir.Program {
	stmt := &ir.Stmt{
		Label:  "mm",
		Writes: []ir.Access{{Array: "C", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads: []ir.Access{
			{Array: "C", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("k")}},
			{Array: "B", Indices: []ir.Affine{ir.Var("k"), ir.Var("j")}},
		},
		Flops: 2,
	}
	kl := &ir.Loop{Var: "k", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{kl}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "mm",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "C", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []ir.Node{il},
	}
}

// collect streams p's addresses into one slice per thread.
func collect(t *testing.T, p *ir.Program, nThreads int) [][]uint64 {
	t.Helper()
	traces := make([][]uint64, nThreads)
	if err := generate(p, nThreads, func(thread int, addr uint64) {
		traces[thread] = append(traces[thread], addr)
	}); err != nil {
		t.Fatal(err)
	}
	return traces
}

func TestLayoutNonOverlapping(t *testing.T) {
	p := mmProgram(10)
	l := newLayout(p)
	// A: 800 bytes, B: 800, C: 800, 64-aligned bases.
	if l.base["A"] != 64 {
		t.Errorf("A base = %d", l.base["A"])
	}
	if l.base["B"] < l.base["A"]+800 {
		t.Errorf("B overlaps A: %d", l.base["B"])
	}
	if l.base["B"]%64 != 0 || l.base["C"]%64 != 0 {
		t.Error("bases not 64-aligned")
	}
	if l.strides["A"][0] != 80 || l.strides["A"][1] != 8 {
		t.Errorf("A strides = %v", l.strides["A"])
	}
}

func TestAddressRowMajor(t *testing.T) {
	p := mmProgram(10)
	l := newLayout(p)
	ac := ir.Access{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("k")}}
	addr, err := l.address(ac, map[string]int64{"i": 2, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	if addr != l.base["A"]+2*80+3*8 {
		t.Fatalf("addr = %d", addr)
	}
	if _, err := l.address(ir.Access{Array: "Z"}, nil); err == nil {
		t.Error("unknown array should fail")
	}
	if _, err := l.address(ac, map[string]int64{"i": -1}); err == nil {
		t.Error("negative index should fail")
	}
}

func TestGenerateSequentialCount(t *testing.T) {
	p := vecAdd(16)
	traces := collect(t, p, 1)
	// 16 iterations × 3 accesses.
	if len(traces[0]) != 48 {
		t.Fatalf("trace length = %d, want 48", len(traces[0]))
	}
}

func TestGenerateParallelPartition(t *testing.T) {
	p := vecAdd(16)
	p.Root[0].(*ir.Loop).Parallel = true
	traces := collect(t, p, 4)
	total := 0
	for tID, tr := range traces {
		if len(tr) != 12 {
			t.Errorf("thread %d trace = %d accesses, want 12", tID, len(tr))
		}
		total += len(tr)
	}
	if total != 48 {
		t.Fatalf("total = %d", total)
	}
}

func TestGenerateUnevenPartition(t *testing.T) {
	p := vecAdd(10)
	p.Root[0].(*ir.Loop).Parallel = true
	traces := collect(t, p, 4)
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	if total != 30 {
		t.Fatalf("total = %d, want 30", total)
	}
}

func TestGenerateCollapsedMatchesSequentialMultiset(t *testing.T) {
	n := int64(8)
	p := mmProgram(n)
	versions, _, err := transform.Apply(p, transform.Version{Tiles: []int64{4, 4, 4}, Collapse: 2})
	if err != nil {
		t.Fatal(err)
	}
	tiled := versions[0]
	seq, par := collect(t, p, 1), collect(t, tiled, 3)
	count := func(traces [][]uint64) map[uint64]int {
		m := map[uint64]int{}
		for _, tr := range traces {
			for _, a := range tr {
				m[a]++
			}
		}
		return m
	}
	cs, cp := count(seq), count(par)
	if len(cs) != len(cp) {
		t.Fatalf("distinct addresses: %d vs %d", len(cs), len(cp))
	}
	for a, n := range cs {
		if cp[a] != n {
			t.Fatalf("address %d count %d vs %d", a, n, cp[a])
		}
	}
}

func TestGenerateValidatesInput(t *testing.T) {
	p := vecAdd(4)
	p.Arrays = nil // invalid: accesses undeclared arrays
	discard := func(int, uint64) {}
	if err := generate(p, 1, discard); err == nil {
		t.Error("invalid program should fail")
	}
	if err := generate(vecAdd(4), 0, discard); err == nil {
		t.Error("0 threads should fail")
	}
}

// Tiling improves simulated cache behaviour: the central claim the
// whole framework relies on, verified end-to-end with the simulator.
func TestTilingImprovesSimulatedMissRate(t *testing.T) {
	n := int64(96) // one 96x96 double matrix is 73 KB — larger than the 32 KB L1
	p := mmProgram(n)
	tiled, err := transform.Tile(p, []int64{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	run := func(prog *ir.Program) float64 {
		h, err := newHierarchy(machine.Westmere(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := generate(prog, 1, func(thread int, a uint64) { h.access(thread, a) }); err != nil {
			t.Fatal(err)
		}
		l1 := h.perThread[0][0].stats
		return float64(l1.misses) / float64(l1.accesses)
	}
	untiledMiss := run(p)
	tiledMiss := run(tiled)
	if tiledMiss >= untiledMiss {
		t.Fatalf("tiling did not improve L1 miss rate: %v vs %v", tiledMiss, untiledMiss)
	}
}
