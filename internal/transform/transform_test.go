package transform

import (
	"strings"
	"testing"
	"testing/quick"

	"autotune/internal/ir"
	"autotune/internal/testenv"
)

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

// applyOne is Apply of a batch of one version.
func applyOne(p *ir.Program, tiles []int64, collapse int, unroll int64) (*ir.Program, error) {
	out, _, err := Apply(p, Version{Tiles: tiles, Collapse: collapse, Unroll: unroll})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// iterationCount walks the loop tree executing bounds, counting
// innermost statement executions. It is the ground truth for semantic
// preservation: any legal restructuring must execute each statement the
// same number of times.
func iterationCount(ns []ir.Node, env map[string]int64) int64 {
	var count int64
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Stmt:
			count++
		case *ir.Loop:
			lo := x.Lo.Eval(env)
			hi := x.EffectiveHi(env)
			for v := lo; v < hi; v += x.Step {
				env[x.Var] = v
				count += iterationCount(x.Body, env)
			}
			delete(env, x.Var)
		}
	}
	return count
}

func TestTilePreservesIterationCount(t *testing.T) {
	const n = 12
	orig := mmProgram(n)
	want := iterationCount(orig.Root, map[string]int64{})
	if want != n*n*n {
		t.Fatalf("baseline count = %d", want)
	}
	for _, tiles := range [][]int64{{4, 4, 4}, {5, 3, 7}, {12, 12, 12}, {100, 1, 2}, {1, 1, 1}, {4}, {4, 6}} {
		tiled, err := Tile(orig, tiles)
		if err != nil {
			t.Fatalf("Tile(%v): %v", tiles, err)
		}
		if err := tiled.Validate(); err != nil {
			t.Fatalf("Tile(%v) produced invalid IR: %v", tiles, err)
		}
		got := iterationCount(tiled.Root, map[string]int64{})
		if got != want {
			t.Errorf("Tile(%v): iterations = %d, want %d", tiles, got, want)
		}
	}
}

func TestTileDoesNotModifyInput(t *testing.T) {
	orig := mmProgram(8)
	before := orig.String()
	if _, err := Tile(orig, []int64{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if orig.String() != before {
		t.Fatal("Tile mutated its input program")
	}
}

func TestTileStructure(t *testing.T) {
	tiled, err := Tile(mmProgram(16), []int64{4, 8, 2})
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(tiled.Root[0])
	var order []string
	for _, l := range loops {
		order = append(order, l.Var)
	}
	want := "i_t,j_t,k_t,i,j,k"
	if strings.Join(order, ",") != want {
		t.Fatalf("loop order = %v, want %s", order, want)
	}
	if loops[0].Step != 4 || loops[1].Step != 8 || loops[2].Step != 2 {
		t.Fatalf("tile loop steps = %d,%d,%d", loops[0].Step, loops[1].Step, loops[2].Step)
	}
	// Point loops are capped by the original bound.
	if len(loops[3].Caps) != 1 || loops[3].Caps[0].Const != 16 {
		t.Fatalf("point loop caps = %v", loops[3].Caps)
	}
}

func TestTilePartialAndUnit(t *testing.T) {
	// Tile size 1 leaves the level untiled: only j gets a tile loop.
	tiled, err := Tile(mmProgram(16), []int64{1, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(tiled.Root[0])
	var order []string
	for _, l := range loops {
		order = append(order, l.Var)
	}
	if strings.Join(order, ",") != "j_t,i,j,k" {
		t.Fatalf("loop order = %v", order)
	}
}

func TestTileErrors(t *testing.T) {
	if _, err := Tile(&ir.Program{Name: "empty"}, []int64{2}); err == nil {
		t.Error("empty program should fail")
	}
	if _, err := Tile(mmProgram(8), []int64{2, 2, 2, 2}); err == nil {
		t.Error("too many tile sizes should fail")
	}
	if _, err := Tile(mmProgram(8), []int64{-1}); err == nil {
		t.Error("negative tile size should fail")
	}
	p := mmProgram(8)
	loops, _ := ir.PerfectNest(p.Root[0])
	loops[0].Step = 2
	if _, err := Tile(p, []int64{4}); err == nil {
		t.Error("tiling a non-unit-step loop should fail")
	}
}

func TestParallelize(t *testing.T) {
	p, err := applyOne(mmProgram(8), nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(p.Root[0])
	if !loops[0].Parallel || loops[0].Collapse != 2 {
		t.Fatalf("outer loop parallel=%v collapse=%d", loops[0].Parallel, loops[0].Collapse)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelizeErrors(t *testing.T) {
	if _, err := applyOne(mmProgram(8), nil, 0, 0); err == nil {
		t.Error("collapse 0 should fail")
	}
	if _, err := applyOne(mmProgram(8), nil, 4, 0); err == nil {
		t.Error("collapse beyond depth should fail")
	}
	if _, err := applyOne(&ir.Program{Name: "e"}, nil, 1, 0); err == nil {
		t.Error("empty program should fail")
	}
	// Non-rectangular collapse.
	stmt := &ir.Stmt{Label: "s", Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Var("i"), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(8), Step: 1, Body: []ir.Node{jl}}
	p := &ir.Program{Name: "tri", Arrays: []ir.Array{{Name: "A", ElemBytes: 8, Dims: []int64{8, 8}}}, Root: []ir.Node{il}}
	if _, err := applyOne(p, nil, 2, 0); err == nil {
		t.Error("non-rectangular collapse should fail")
	}
}

// TestSequenceComposesAndStopsOnError: Apply runs tile, parallelize
// and unroll in that order and stops at the first that fails, naming
// it as step 0, 1 or 2.
func TestSequenceComposesAndStopsOnError(t *testing.T) {
	p := mmProgram(16)
	out, err := applyOne(p, []int64{4, 4, 4}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	if loops[0].Var != "i_t" || !loops[0].Parallel || loops[0].Collapse != 2 {
		t.Fatalf("sequence result wrong: %s parallel=%v", loops[0].Var, loops[0].Parallel)
	}
	if got := iterationCount(out.Root, map[string]int64{}); got != 16*16*16 {
		t.Fatalf("iterations = %d", got)
	}
	for _, c := range []struct {
		tiles    []int64
		collapse int
		unroll   int64
		want     string
	}{
		{[]int64{-2}, 1, 0, "transform: step 0: transform: negative tile size -2"},
		{[]int64{4, 4, 4}, 7, 2, "transform: step 1: transform: collapse 7 exceeds nest depth 6"},
		{[]int64{4, 4, 4}, 2, -1, "transform: step 2: transform: unroll pragma factor must be >= 1, got -1"},
	} {
		if out, err := applyOne(p, c.tiles, c.collapse, c.unroll); out != nil || err == nil || err.Error() != c.want {
			t.Errorf("Apply(%v, %d, %d) = (%v, %v), want error %q", c.tiles, c.collapse, c.unroll, out, err, c.want)
		}
	}
}

// Property: tiling with arbitrary positive tile sizes preserves the
// exact iteration count for arbitrary (small) problem sizes.
func TestTileIterationCountProperty(t *testing.T) {
	f := func(rawN uint8, t1, t2, t3 uint8) bool {
		n := int64(rawN%20) + 1
		tiles := []int64{int64(t1%25) + 1, int64(t2%25) + 1, int64(t3%25) + 1}
		p := mmProgram(n)
		tiled, err := Tile(p, tiles)
		if err != nil {
			return false
		}
		return iterationCount(tiled.Root, map[string]int64{}) == n*n*n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: tiling then parallelizing preserves iteration count and
// validity regardless of collapse depth within the tile-loop band.
func TestTileParallelizeProperty(t *testing.T) {
	f := func(rawN, t1, t2 uint8, c uint8) bool {
		n := int64(rawN%12) + 2
		tiles := []int64{int64(t1%8) + 2, int64(t2%8) + 2}
		p := mmProgram(n)
		out, err := applyOne(p, tiles, int(c%2)+1, 0)
		if err != nil {
			return false
		}
		if out.Validate() != nil {
			return false
		}
		return iterationCount(out.Root, map[string]int64{}) == n*n*n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSequenceOwnsItsClone: Apply transforms one private copy of the
// spine — the program header, its Root slice and the loops of the
// perfect nest at Root[0] — and shares everything else. The caller's
// program is never written — not when every rewrite succeeds, not when
// a later rewrite fails after earlier ones rewrote the copy, not when
// the spine is written by hand — and a failing Apply returns no
// program. The statements are the caller's own.
func TestSequenceOwnsItsClone(t *testing.T) {
	p := mmProgram(16)
	before := p.String()
	out, err := applyOne(p, []int64{4, 4, 4}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != before {
		t.Fatal("a successful Apply modified its input")
	}
	// The rewrites ran on one copy: the result equals the deep-copy
	// reference, which clones the whole program and rewrites the clone.
	want, err := refSequence(p, applyArgs{tiles: []int64{4, 4, 4}, collapse: 2, unroll: 4}.spec())
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("Apply result:\n%s\nclone-per-rewrite result:\n%s", out, want)
	}

	// An unroll factor of -1 fails after tiling and parallelizing.
	if out, err := applyOne(p, []int64{4, 4, 4}, 2, -1); err == nil || out != nil || !strings.Contains(err.Error(), "step 2") {
		t.Fatalf("failing Apply returned (%v, %v)", out, err)
	}
	if p.String() != before {
		t.Fatal("a failing Apply modified its input")
	}

	same, err := applyOne(p, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spineLoops, stmts := ir.PerfectNest(same.Root[0])
	inputLoops, inputStmts := ir.PerfectNest(p.Root[0])
	if len(stmts) != len(inputStmts) || len(stmts) == 0 {
		t.Fatalf("%d statements, input has %d", len(stmts), len(inputStmts))
	}
	for i := range stmts {
		if stmts[i] != inputStmts[i] {
			t.Fatalf("statement %d was copied; Apply shares the statements", i)
		}
	}
	for i, l := range spineLoops {
		if l == inputLoops[i] {
			t.Fatalf("spine loop %d is the input's own", i)
		}
		l.Parallel = true
		l.UnrollPragma = 8
	}
	spineLoops[0].Body = nil
	spineLoops[len(spineLoops)-1].Body = nil
	same.Root[0] = &ir.Loop{Var: "x", Hi: ir.Con(1), Step: 1}
	if p.String() != before {
		t.Fatalf("writing a version's spine modified its input:\n%s\nwas\n%s", p, before)
	}
}

// TestFailingRewriteLeavesProgramUntouched: Apply checks every version
// of a batch before it builds any, so a batch whose later version fails
// returns no program, names that version, and has written nothing —
// neither the input nor a version built before the check failed.
func TestFailingRewriteLeavesProgramUntouched(t *testing.T) {
	triangular := mmProgram(8)
	jl := triangular.Root[0].(*ir.Loop).Body[0].(*ir.Loop)
	jl.Hi = ir.Var("i").AddConst(1) // j < i+1: not collapsible
	stepped := mmProgram(8)
	stepped.Root[0].(*ir.Loop).Body[0].(*ir.Loop).Step = 2 // untileable second level
	cases := []struct {
		name string
		p    *ir.Program
		bad  Version
	}{
		{"tile: negative size after a valid one", mmProgram(8), Version{Tiles: []int64{4, -1}, Collapse: 1}},
		{"tile: too deep", mmProgram(8), Version{Tiles: []int64{2, 2, 2, 2}, Collapse: 1}},
		{"tile: stepped loop after a tileable one", stepped, Version{Tiles: []int64{2, 2}, Collapse: 1}},
		{"parallelize: collapse too deep", mmProgram(8), Version{Collapse: 4}},
		{"parallelize: non-rectangular collapse", triangular, Version{Collapse: 2}},
		{"annotate: bad factor", mmProgram(8), Version{Collapse: 1, Unroll: -1}},
		{"empty program", &ir.Program{Name: "empty"}, Version{Tiles: []int64{2}, Collapse: 1}},
	}
	for _, c := range cases {
		before := c.p.String()
		good := Version{Tiles: []int64{4}, Collapse: 1, Unroll: 2}
		out, bad, err := Apply(c.p, good, c.bad, good)
		if err == nil || out != nil {
			t.Errorf("%s: Apply returned (%v, %v), want an error and no program", c.name, out, err)
		}
		if c.p.String() != before {
			t.Errorf("%s: the failing Apply modified its program:\n%s\nwas\n%s", c.name, c.p, before)
		}
		want := 1
		if c.name == "empty program" {
			want = 0 // the first version fails already
		}
		if bad != want {
			t.Errorf("%s: Apply names version %d, want %d", c.name, bad, want)
		}
	}
}

// TestApplyAllocationBudget: a batch of one version of a 3-deep nest
// is the result list, one slab each of headers, nodes (Root and the
// chain), loops (copies, tile and point loops) and point caps, and the
// tile iterators — their names in one string and their one-term
// expressions from one term slab: 7 allocations, where cloning the
// whole program cost 84, the closures of a step list brought it to 16,
// and a spine copy and tile slabs of its own with a name and an
// expression per tiled level cost 13. Parallelizing and annotating
// allocate nothing. A batch of more versions adds none.
func TestApplyAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := mmProgram(64)
	tiles := []int64{4, 8, 16}
	perApply := testing.AllocsPerRun(100, func() {
		if _, err := applyOne(p, tiles, 2, 4); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 7.0; perApply > budget {
		t.Errorf("Apply of tile + parallelize + unroll on mm allocates %v times, budget %v", perApply, budget)
	}
	vs := make([]Version, 12)
	for i := range vs {
		vs[i] = Version{Tiles: []int64{int64(i), 8, int64(16 - i)}, Collapse: 1 + i%2, Unroll: int64(i % 3)}
	}
	perBatch := testing.AllocsPerRun(100, func() {
		if _, _, err := Apply(p, vs...); err != nil {
			t.Fatal(err)
		}
	})
	if perBatch > perApply {
		t.Errorf("Apply of a 12-version batch allocates %v times, one version %v", perBatch, perApply)
	}
}
