package transform

import (
	"strings"
	"testing"
	"testing/quick"

	"autotune/internal/ir"
	"autotune/internal/israce"
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
	p, err := Sequence(mmProgram(8), ParallelizeStep(2))
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
	if _, err := Sequence(mmProgram(8), ParallelizeStep(0)); err == nil {
		t.Error("collapse 0 should fail")
	}
	if _, err := Sequence(mmProgram(8), ParallelizeStep(4)); err == nil {
		t.Error("collapse beyond depth should fail")
	}
	if _, err := Sequence(&ir.Program{Name: "e"}, ParallelizeStep(1)); err == nil {
		t.Error("empty program should fail")
	}
	// Non-rectangular collapse.
	stmt := &ir.Stmt{Label: "s", Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Var("i"), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(8), Step: 1, Body: []ir.Node{jl}}
	p := &ir.Program{Name: "tri", Arrays: []ir.Array{{Name: "A", ElemBytes: 8, Dims: []int64{8, 8}}}, Root: []ir.Node{il}}
	if _, err := Sequence(p, ParallelizeStep(2)); err == nil {
		t.Error("non-rectangular collapse should fail")
	}
}

func TestSequenceComposesAndStopsOnError(t *testing.T) {
	p := mmProgram(16)
	out, err := Sequence(p,
		TileStep([]int64{4, 4, 4}),
		ParallelizeStep(2),
	)
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
	_, err = Sequence(p, TileStep([]int64{-2}), ParallelizeStep(1))
	if err == nil || !strings.Contains(err.Error(), "step 0") {
		t.Fatalf("expected step-0 error, got %v", err)
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
		out, err := Sequence(p, TileStep(tiles), ParallelizeStep(int(c%2)+1))
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

// TestSequenceOwnsItsClone: Sequence transforms one private copy of the
// spine — the program header, its Root slice and the loops of the
// perfect nest at Root[0] — and shares everything else. The caller's
// program is never written — not when every step succeeds, not when a
// later step fails after earlier ones rewrote the copy, not when there
// is no step at all and the spine is written by hand — and a failing
// sequence returns no program. The statements are the caller's own.
func TestSequenceOwnsItsClone(t *testing.T) {
	p := mmProgram(16)
	before := p.String()
	steps := []Step{
		TileStep([]int64{4, 4, 4}),
		ParallelizeStep(2),
		AnnotateUnrollStep(4),
	}
	out, err := Sequence(p, steps...)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != before {
		t.Fatal("a successful sequence modified its input")
	}
	// The steps rewrote one copy: the result equals the chain of
	// clone-per-step transformations.
	want := p
	for _, s := range steps {
		if want, err = s(want.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if out.String() != want.String() {
		t.Fatalf("sequence result:\n%s\nclone-per-step result:\n%s", out, want)
	}

	failing := append(append([]Step{}, steps...), ParallelizeStep(7)) // deeper than the tiled nest
	if out, err := Sequence(p, failing...); err == nil || out != nil || !strings.Contains(err.Error(), "step 3") {
		t.Fatalf("failing sequence returned (%v, %v)", out, err)
	}
	if p.String() != before {
		t.Fatal("a failing sequence modified its input")
	}

	same, err := Sequence(p)
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
			t.Fatalf("statement %d was copied; a sequence shares the statements", i)
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
		t.Fatalf("writing an empty sequence's spine modified its input:\n%s\nwas\n%s", p, before)
	}
}

// TestFailingRewriteLeavesProgramUntouched: a Step may rewrite its
// argument in place, but only after every check has passed — a step that
// returns an error has changed nothing.
func TestFailingRewriteLeavesProgramUntouched(t *testing.T) {
	triangular := mmProgram(8)
	jl := triangular.Root[0].(*ir.Loop).Body[0].(*ir.Loop)
	jl.Hi = ir.Var("i").AddConst(1) // j < i+1: not collapsible
	stepped := mmProgram(8)
	stepped.Root[0].(*ir.Loop).Body[0].(*ir.Loop).Step = 2 // untileable second level
	cases := []struct {
		name string
		p    *ir.Program
		step Step
	}{
		{"tile: negative size after a valid one", mmProgram(8), TileStep([]int64{4, -1})},
		{"tile: too deep", mmProgram(8), TileStep([]int64{2, 2, 2, 2})},
		{"tile: stepped loop after a tileable one", stepped, TileStep([]int64{2, 2})},
		{"parallelize: collapse too deep", mmProgram(8), ParallelizeStep(4)},
		{"parallelize: non-rectangular collapse", triangular, ParallelizeStep(2)},
		{"annotate: bad factor", mmProgram(8), AnnotateUnrollStep(0)},
		{"empty program", &ir.Program{Name: "empty"}, TileStep([]int64{2})},
	}
	for _, c := range cases {
		before := c.p.String()
		out, err := c.step(c.p)
		if err == nil || out != nil {
			t.Errorf("%s: step returned (%v, %v), want an error", c.name, out, err)
		}
		if c.p.String() != before {
			t.Errorf("%s: the failing step modified its program:\n%s\nwas\n%s", c.name, c.p, before)
		}
	}
}

// TestSequenceAllocationBudget: a sequence copies the spine of a 3-deep
// nest (header, Root, one slab of loops, one of the nodes linking them)
// and the tile step builds its loops, their chain and the point caps
// from one slab each plus, per tiled level, the tile iterator's name
// and its coefficient map: 16 allocations, where cloning the whole
// program cost 84.
// Parallelizing and annotating allocate nothing.
func TestSequenceAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := mmProgram(64)
	steps := []Step{TileStep([]int64{4, 8, 16}), ParallelizeStep(2), AnnotateUnrollStep(4)}
	perSequence := testing.AllocsPerRun(100, func() {
		if _, err := Sequence(p, steps...); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 16.0; perSequence > budget {
		t.Errorf("Sequence of tile + parallelize + unroll on mm allocates %v times, budget %v", perSequence, budget)
	}
}
