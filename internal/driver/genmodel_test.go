package driver

import (
	"math"
	"testing"
	"testing/quick"

	"autotune/internal/analyzer"
	"autotune/internal/ir"
	"autotune/internal/irparse"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/perfmodel"
)

func deriveFor(t *testing.T, p *ir.Program) (*perfmodel.KernelModel, analyzer.Region) {
	t.Helper()
	regions, err := analyzer.Analyze(p, analyzer.Options{MaxThreads: 40})
	if err != nil {
		t.Fatal(err)
	}
	km, err := deriveModel(p, regions[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := km.Validate(); err != nil {
		t.Fatal(err)
	}
	return km, regions[0]
}

func TestDeriveMMBasics(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(64)
	km, region := deriveFor(t, p)
	if km.TileDims != 3 || region.Band != 3 {
		t.Fatalf("dims = %d", km.TileDims)
	}
	// Flops: 2 per iteration × 64³.
	if got := km.Flops(0); got != 2*64*64*64 {
		t.Fatalf("flops = %v", got)
	}
	if got := km.Accesses(0); got != 4*64*64*64 {
		t.Fatalf("accesses = %v", got)
	}
	// Working set of a (16,16,16) tile: A 16×16, B 16×16, C 16×16
	// doubles = 3·2048 bytes.
	ws := km.WorkingSet(0, []int64{16, 16, 16})
	if ws != 3*16*16*8 {
		t.Fatalf("working set = %d", ws)
	}
	// Total data: 3 matrices.
	if km.TotalData(0) != 3*8*64*64 {
		t.Fatalf("total data = %d", km.TotalData(0))
	}
	// Parallel iterations with collapse(2): ceil(64/16)² = 16.
	if got := km.ParIters(0, []int64{16, 16, 16}); got != 16 {
		t.Fatalf("par iters = %d", got)
	}
}

func TestDeriveStencilHaloFootprint(t *testing.T) {
	j2, _ := kernels.ByName("jacobi-2d")
	p := j2.IR(64)
	km, _ := deriveFor(t, p)
	// The 5-point stencil reads A[i±1][j±1]: each read's footprint for
	// a (8,8) tile is 8×8 elements (single access), but the per-array
	// max across the shifted accesses is still 8×8; the working set is
	// A tile + B tile.
	ws := km.WorkingSet(0, []int64{8, 8})
	if ws < 2*8*8*8 || ws > 4*8*8*8 {
		t.Fatalf("stencil working set = %d", ws)
	}
}

func TestDeriveLevelTrafficMonotone(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	km, _ := deriveFor(t, mm.IR(96))
	for _, tiles := range [][]int64{{8, 8, 8}, {16, 32, 8}, {48, 48, 48}} {
		prev := math.Inf(1)
		for cap := int64(1 << 10); cap <= 1<<26; cap *= 4 {
			c := perfmodel.Capacity{PerThread: cap, Total: cap, Sharers: 1}
			tr := km.LevelTraffic(0, tiles, c)
			if tr < 0 || tr > prev*1.000001 {
				t.Fatalf("traffic not monotone at cap %d: %v -> %v", cap, prev, tr)
			}
			prev = tr
		}
	}
}

func TestDeriveTiledBeatsUntiledEndToEnd(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(256)
	km, _ := deriveFor(t, p)
	mo := perfmodel.New(machine.Westmere())
	tiled, err := mo.TimeUnrolled(km, 0, []int64{32, 32, 32}, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	untiled, err := mo.TimeUnrolled(km, 0, []int64{1, 1, 1}, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tiled >= untiled {
		t.Fatalf("derived model: tiled (%v) not better than untiled (%v)", tiled, untiled)
	}
}

func TestDeriveFromParsedSource(t *testing.T) {
	src := `
program custom
array X[128][128] elem 8
array Y[128][128] elem 8
for i = 0..128 {
  for j = 0..128 {
    Y[i][j] = f(X[i][j], X[j][i]) flops 3
  }
}
`
	p, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	km, _ := deriveFor(t, p)
	if km.Flops(0) != 3*128*128 {
		t.Fatalf("flops = %v", km.Flops(0))
	}
	// X[j][i] is strided in j (the innermost): class 2 → streaming
	// traffic includes a 64-byte term.
	c := perfmodel.Capacity{PerThread: 1, Total: 1, Sharers: 1}
	stream := km.LevelTraffic(0, []int64{8, 8}, c)
	if stream < float64(128*128)*64 {
		t.Fatalf("strided access undercounted: %v", stream)
	}
}

func TestDeriveRejectsNonRectangular(t *testing.T) {
	src := `
program tri
array A[32][32] elem 8
for i = 0..32 {
  for j = 0..i {
    A[i][j] = f(A[i][j]) flops 1
  }
}
`
	p, err := irparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := analyzer.Analyze(p, analyzer.Options{MaxThreads: 8})
	if err != nil {
		t.Skip("triangular nest not tunable at all (fine)")
	}
	if _, err := deriveModel(p, regions[0]); err == nil {
		t.Fatal("non-rectangular bounds accepted")
	}
}

func TestDeriveBadRegion(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(16)
	regions, _ := analyzer.Analyze(p, analyzer.Options{MaxThreads: 4})
	r := regions[0]
	r.Band = 0
	if _, err := deriveModel(p, r); err == nil {
		t.Fatal("band 0 accepted")
	}
}

// Property: the derived working set is monotone non-decreasing in
// every tile dimension, and ParIters is monotone non-increasing.
func TestDeriveMonotoneProperty(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(128)
	km, _ := deriveFor(t, p)
	f := func(a, b, c uint8) bool {
		t1 := []int64{int64(a%64) + 1, int64(b%64) + 1, int64(c%64) + 1}
		t2 := []int64{t1[0] + 8, t1[1] + 8, t1[2] + 8}
		if km.WorkingSet(0, t2) < km.WorkingSet(0, t1) {
			return false
		}
		if km.ParIters(0, t2) > km.ParIters(0, t1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: derived LevelTraffic stays non-negative and finite for
// arbitrary tiles and capacities.
func TestDeriveTrafficSaneProperty(t *testing.T) {
	j2, _ := kernels.ByName("jacobi-2d")
	km, _ := deriveFor(t, j2.IR(64))
	f := func(a, b uint8, capRaw uint16) bool {
		tiles := []int64{int64(a%64) + 1, int64(b%64) + 1}
		cap := perfmodel.Capacity{
			PerThread: int64(capRaw)*64 + 64,
			Total:     int64(capRaw)*64 + 64,
			Sharers:   1,
		}
		tr := km.LevelTraffic(0, tiles, cap)
		return tr >= 0 && !math.IsInf(tr, 0) && !math.IsNaN(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
