package analyzer

import (
	"testing"

	"autotune/internal/ir"
	"autotune/internal/kernels"
	"autotune/internal/skeleton"
)

func TestAnalyzeAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		p := k.IR(128)
		regions, err := Analyze(p, Options{MaxThreads: 40})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		wantRegions := 1
		if k.Name == "2mm" || k.Name == "atax" {
			wantRegions = 2 // two-stage programs contribute two nests
		}
		if len(regions) != wantRegions {
			t.Fatalf("%s: regions = %d, want %d", k.Name, len(regions), wantRegions)
		}
		r := regions[0]
		if r.Band < k.TileDims {
			t.Errorf("%s: band %d < expected %d", k.Name, r.Band, k.TileDims)
		}
		// The reductions of atax and n-body carry a dependence over
		// their second loop; every other kernel collapses.
		if want := k.Name != "atax" && k.Name != "n-body"; r.Collapsible != want {
			t.Errorf("%s: collapsible = %v, want %v", k.Name, r.Collapsible, want)
		}
		// Space layout: band tile params + threads.
		if r.Skeleton.Space.Dim() != r.Band+1 {
			t.Errorf("%s: space dim = %d, want %d", k.Name, r.Skeleton.Space.Dim(), r.Band+1)
		}
		last := r.Skeleton.Space.Params[r.Band]
		if last.Kind != skeleton.ThreadCount || last.Max != 40 {
			t.Errorf("%s: thread param = %+v", k.Name, last)
		}
	}
}

func TestAnalyzeMaxTileIsHalfTripCount(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	regions, err := Analyze(mm.IR(256), Options{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if regions[0].MaxTile != 128 {
		t.Fatalf("MaxTile = %d, want 128 (N/2)", regions[0].MaxTile)
	}
}

func TestAnalyzeSkipsNonParallelNest(t *testing.T) {
	// A[i] = A[i-1]: fully sequential.
	stmt := &ir.Stmt{
		Label:  "scan",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i")}}},
		Reads:  []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i").AddConst(-1)}}},
	}
	il := &ir.Loop{Var: "i", Lo: ir.Con(1), Hi: ir.Con(64), Step: 1, Body: []ir.Node{stmt}}
	p := &ir.Program{Name: "scan", Arrays: []ir.Array{{Name: "A", ElemBytes: 8, Dims: []int64{64}}}, Root: []ir.Node{il}}
	if _, err := Analyze(p, Options{MaxThreads: 4}); err == nil {
		t.Fatal("sequential scan must not be tunable")
	}
}

func TestAnalyzeSkipsTinyLoops(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	if _, err := Analyze(mm.IR(2), Options{MaxThreads: 4}); err == nil {
		t.Fatal("trip count 2 should be skipped: below the minimum trip count of 4")
	}
}

func TestAnalyzeOptionValidation(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	if _, err := Analyze(mm.IR(64), Options{}); err == nil {
		t.Fatal("MaxThreads 0 should fail")
	}
	bad := mm.IR(64)
	bad.Arrays = nil
	if _, err := Analyze(bad, Options{MaxThreads: 4}); err == nil {
		t.Fatal("invalid program should fail")
	}
}

func TestInstantiateProducesValidTransformedProgram(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(64)
	regions, err := Analyze(p, Options{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	outs, insts, err := regions[0].Skeleton.Apply(regions[0].Outline(p), skeleton.Config{8, 8, 8, 4})
	if err != nil {
		t.Fatal(err)
	}
	out, inst := outs[0], insts[0]
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Threads != 4 {
		t.Fatalf("threads = %d", inst.Threads)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if !loops[0].Parallel {
		t.Fatal("outermost loop not parallelized")
	}
	if loops[0].Collapse != 2 {
		t.Fatalf("collapse = %d, want 2 for mm", loops[0].Collapse)
	}
}

func TestAnalyzeMultipleRegions(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p1 := mm.IR(64)
	p2 := mm.IR(64)
	combined := &ir.Program{
		Name:   "two-regions",
		Arrays: p1.Arrays,
		Root:   []ir.Node{p1.Root[0], p2.Root[0]},
	}
	regions, err := Analyze(combined, Options{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(regions))
	}
	if regions[0].ID == regions[1].ID {
		t.Fatal("region IDs must differ")
	}
}
