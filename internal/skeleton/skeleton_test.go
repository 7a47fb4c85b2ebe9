package skeleton

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"autotune/internal/ir"
	"autotune/internal/stats"
)

func space3() Space {
	return Space{Params: []Param{
		{Name: "t1", Kind: TileSize, Min: 1, Max: 700},
		{Name: "t2", Kind: TileSize, Min: 1, Max: 700},
		{Name: "threads", Kind: ThreadCount, Min: 1, Max: 40},
	}}
}

func TestSpaceValidate(t *testing.T) {
	if err := space3().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Space{
		{},
		{Params: []Param{{Name: "", Min: 0, Max: 1}}},
		{Params: []Param{{Name: "a", Min: 2, Max: 1}}},
		{Params: []Param{{Name: "a", Min: 0, Max: 1}, {Name: "a", Min: 0, Max: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConfigKeyEqualClone(t *testing.T) {
	c := Config{3, 5, 7}
	if c.Key() != "3,5,7" {
		t.Fatalf("Key = %q", c.Key())
	}
	d := c.Clone()
	if !slices.Equal(d, c) {
		t.Fatalf("Clone = %v", d)
	}
	d[0] = 9
	if c[0] != 3 {
		t.Fatal("Clone aliases")
	}
}

func TestInClipRandom(t *testing.T) {
	s := space3()
	if !s.In(Config{1, 700, 40}) {
		t.Fatal("boundary config should be in space")
	}
	if s.In(Config{0, 1, 1}) || s.In(Config{1, 1, 41}) || s.In(Config{1, 1}) {
		t.Fatal("out-of-space configs accepted")
	}
	clipped := s.Clip(Config{-5, 9999, 12})
	if !slices.Equal(clipped, Config{1, 700, 12}) {
		t.Fatalf("Clip = %v", clipped)
	}
	rng := stats.NewRand(1)
	for i := 0; i < 100; i++ {
		if !s.In(s.Random(rng)) {
			t.Fatal("Random produced out-of-space config")
		}
	}
}

func TestBoxOperations(t *testing.T) {
	s := space3()
	full := s.FullBox()
	if !slices.Equal(full.Lo, []int64{1, 1, 1}) || !slices.Equal(full.Hi, []int64{700, 700, 40}) {
		t.Fatalf("FullBox = %v, want the space's bounds", full)
	}
	b := Box{Lo: []int64{10, 20, 2}, Hi: []int64{20, 40, 8}}
	got := b.AppendClosestTo(nil, []float64{3.7, 29.4, 100})
	if !slices.Equal(got, Config{10, 29, 8}) {
		t.Fatalf("AppendClosestTo = %v", got)
	}
}

// inBox reports whether c lies within b, bounds included.
func inBox(b Box, c Config) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i, v := range c {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

func TestParamKindString(t *testing.T) {
	kinds := map[ParamKind]string{TileSize: "tile", ThreadCount: "threads", UnrollFactor: "unroll"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
	if ParamKind(42).String() == "" {
		t.Error("unknown kind should stringify")
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

func TestTiledParallelSkeleton(t *testing.T) {
	sk := TiledParallel("mm3d", 3, 700, 40, true)
	if err := sk.Space.Validate(); err != nil {
		t.Fatal(err)
	}
	if sk.Space.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", sk.Space.Dim())
	}
	p := mmProgram(64)
	out, inst, err := applyOne(sk, p, Config{16, 32, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Threads != 10 {
		t.Fatalf("threads = %d", inst.Threads)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if loops[0].Var != "i_t" || !loops[0].Parallel || loops[0].Collapse != 2 {
		t.Fatalf("outer = %s parallel=%v collapse=%d", loops[0].Var, loops[0].Parallel, loops[0].Collapse)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTiledParallelUnitTilesFallBackToCollapse1(t *testing.T) {
	sk := TiledParallel("mm3d", 3, 700, 40, true)
	out, _, err := applyOne(sk, mmProgram(64), Config{1, 1, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if loops[0].Var != "i" || loops[0].Collapse != 1 {
		t.Fatalf("unit tiles: outer=%s collapse=%d", loops[0].Var, loops[0].Collapse)
	}
}

// applyOne is Apply of one configuration.
func applyOne(sk *Skeleton, p *ir.Program, cfg Config) (*ir.Program, Instance, error) {
	out, insts, err := sk.Apply(p, cfg)
	if err != nil {
		return nil, Instance{}, err
	}
	return out[0], insts[0], nil
}

func TestSkeletonApplyRejectsOutOfSpace(t *testing.T) {
	sk := TiledParallel("mm3d", 3, 700, 40, true)
	if _, _, err := applyOne(sk, mmProgram(64), Config{0, 1, 1, 4}); err == nil {
		t.Fatal("expected out-of-space error")
	}
	if _, _, err := applyOne(sk, mmProgram(64), Config{1, 1, 1}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	// In a batch, the error names the configuration it refuses, and
	// nothing is returned.
	out, insts, err := sk.Apply(mmProgram(64), Config{16, 16, 16, 4}, Config{0, 1, 1, 4})
	if want := "skeleton mm3d: configuration [0 1 1 4] outside space"; err == nil || err.Error() != want || out != nil || insts != nil {
		t.Fatalf("Apply of a batch with a configuration outside the space = (%v, %v, %v), want error %q", out, insts, err, want)
	}
}

// TestSkeletonApplyBatchMatchesOneByOne: the versions and instances of
// a batch are those of its configurations applied one at a time.
func TestSkeletonApplyBatchMatchesOneByOne(t *testing.T) {
	sk := TiledParallelUnroll("mm3d", 3, 700, 40, true, 8)
	p := mmProgram(64)
	cfgs := []Config{{16, 32, 8, 10, 4}, {1, 1, 1, 4, 1}, {1, 7, 700, 40, 8}, {5, 1, 9, 2, 2}}
	outs, insts, err := sk.Apply(p, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		out, inst, err := applyOne(sk, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].String() != out.String() || !reflect.DeepEqual(insts[i], inst) {
			t.Errorf("%v: batch version\n%s%+v\none by one\n%s%+v", cfg, outs[i], insts[i], out, inst)
		}
	}
}

func TestSkeletonNoCollapseVariant(t *testing.T) {
	sk := TiledParallel("mm3d-nc", 3, 700, 40, false)
	out, _, err := applyOne(sk, mmProgram(64), Config{16, 16, 16, 4})
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if loops[0].Collapse != 1 {
		t.Fatalf("collapse = %d, want 1", loops[0].Collapse)
	}
}

// Property: AppendClosestTo always lands inside the box.
func TestClosestToInBoxProperty(t *testing.T) {
	b := Box{Lo: []int64{1, 1, 1}, Hi: []int64{700, 700, 40}}
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		return inBox(b, b.AppendClosestTo(nil, []float64{x, y, z}))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clip result is always inside the space and is the identity
// for configurations already inside.
func TestClipProperty(t *testing.T) {
	s := space3()
	f := func(a, b, c int64) bool {
		cfg := Config{a % 2000, b % 2000, c % 100}
		clipped := s.Clip(cfg)
		if !s.In(clipped) {
			return false
		}
		if s.In(cfg) && !slices.Equal(clipped, cfg) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
