package polyhedral

import (
	"testing"

	"autotune/internal/ir"
)

// mmNest builds the Fig. 7 IJK matrix multiply nest and returns its
// loops and statements.
func mmNest(n int64) ([]*ir.Loop, []*ir.Stmt) {
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
	return []*ir.Loop{il, jl, kl}, []*ir.Stmt{stmt}
}

func TestMMDependences(t *testing.T) {
	loops, stmts := mmNest(64)
	deps := Analyze(loops, stmts)
	if len(deps) == 0 {
		t.Fatal("expected dependences on C")
	}
	for _, d := range deps {
		if d.Array != "C" {
			t.Errorf("unexpected dependence on read-only array: %v", d)
		}
		if d.Directions[0] != dirZero || d.Directions[1] != dirZero {
			t.Errorf("i/j should not carry deps: %v", d)
		}
		if d.Directions[2] != dirNonNeg {
			t.Errorf("k direction = %v, want <= (reduction)", d.Directions[2])
		}
	}
}

func TestMMLegality(t *testing.T) {
	loops, stmts := mmNest(64)
	deps := Analyze(loops, stmts)
	if !fullyPermutable(deps, 0, 2) {
		t.Error("mm nest should be fully permutable (3D tiling legal)")
	}
	if MaxTilableBand(deps, 3) != 3 {
		t.Errorf("MaxTilableBand = %d, want 3", MaxTilableBand(deps, 3))
	}
	if !ParallelLoop(deps, 0) {
		t.Error("i loop should be parallel")
	}
	if !ParallelLoop(deps, 1) {
		t.Error("j loop should be parallel")
	}
	if ParallelLoop(deps, 2) {
		t.Error("k loop carries the reduction and must not be parallel")
	}
	if !CollapsibleLoops(loops, deps, 0) {
		t.Error("i and j should be collapsible")
	}
	if CollapsibleLoops(loops, deps, 1) {
		t.Error("j and k must not be collapsible (k carries reduction)")
	}
}

// jacobiNest builds a two-array Jacobi sweep: B[i][j] = f(A[i±1][j±1]).
func jacobiNest(n int64) ([]*ir.Loop, []*ir.Stmt) {
	rd := func(di, dj int64) ir.Access {
		return ir.Access{Array: "A", Indices: []ir.Affine{
			ir.Var("i").AddConst(di), ir.Var("j").AddConst(dj),
		}}
	}
	stmt := &ir.Stmt{
		Label:  "jacobi",
		Writes: []ir.Access{{Array: "B", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads:  []ir.Access{rd(0, 0), rd(-1, 0), rd(1, 0), rd(0, -1), rd(0, 1)},
		Flops:  5,
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{jl}}
	return []*ir.Loop{il, jl}, []*ir.Stmt{stmt}
}

func TestJacobiTwoArrayFullyParallel(t *testing.T) {
	loops, stmts := jacobiNest(64)
	deps := Analyze(loops, stmts)
	if !ParallelLoop(deps, 0) || !ParallelLoop(deps, 1) {
		t.Errorf("two-array jacobi should be fully parallel; deps = %v", deps)
	}
	if !fullyPermutable(deps, 0, 1) {
		t.Error("jacobi nest should be tilable")
	}
	if !CollapsibleLoops(loops, deps, 0) {
		t.Error("jacobi loops should be collapsible")
	}
}

// seidelNest builds an in-place stencil A[i][j] = f(A[i-1][j], A[i][j-1])
// whose flow dependences have distance (1,0) and (0,1).
func seidelNest(n int64) ([]*ir.Loop, []*ir.Stmt) {
	stmt := &ir.Stmt{
		Label:  "seidel",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads: []ir.Access{
			{Array: "A", Indices: []ir.Affine{ir.Var("i").AddConst(-1), ir.Var("j")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j").AddConst(-1)}},
		},
		Flops: 2,
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(1), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(1), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	return []*ir.Loop{il, jl}, []*ir.Stmt{stmt}
}

func TestSeidelCarriedDependences(t *testing.T) {
	loops, stmts := seidelNest(64)
	deps := Analyze(loops, stmts)
	if ParallelLoop(deps, 0) {
		t.Error("i loop carries a flow dependence and must not be parallel")
	}
	if ParallelLoop(deps, 1) {
		t.Error("j loop carries a flow dependence and must not be parallel")
	}
	// Distances (1,0) and (0,1) are non-negative: tiling stays legal.
	if !fullyPermutable(deps, 0, 1) {
		t.Error("seidel nest is fully permutable despite carried deps")
	}
	if CollapsibleLoops(loops, deps, 0) {
		t.Error("seidel loops must not be collapsible")
	}
}

func TestFlowDistanceExact(t *testing.T) {
	loops, stmts := seidelNest(64)
	deps := Analyze(loops, stmts)
	foundDist10 := false
	for _, d := range deps {
		if d.Kind == flow && d.Exact && len(d.Distance) == 2 &&
			d.Distance[0] == 1 && d.Distance[1] == 0 {
			foundDist10 = true
		}
	}
	if !foundDist10 {
		t.Errorf("expected exact flow distance (1,0); deps = %v", deps)
	}
	_ = loops
}

func TestGCDTestDisprovesDependence(t *testing.T) {
	// A[2i] written, A[2i+1] read: never alias.
	stmt := &ir.Stmt{
		Label:  "evenodd",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Term("i", 2)}}},
		Reads:  []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Term("i", 2).AddConst(1)}}},
	}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{stmt}}
	deps := Analyze([]*ir.Loop{il}, []*ir.Stmt{stmt})
	for _, d := range deps {
		if d.Kind == flow || d.Kind == anti {
			t.Errorf("GCD test should disprove even/odd aliasing: %v", d)
		}
	}
	if !ParallelLoop(deps, 0) {
		t.Error("loop should be parallel")
	}
}

func TestBackwardDependencePruned(t *testing.T) {
	// A[i] = A[i+1]: flow is (i -> i) reading the *next* element, so
	// the flow direction would be negative and must be pruned; the
	// corresponding anti dependence (read then overwritten next
	// iteration) has distance +1.
	stmt := &ir.Stmt{
		Label:  "shift",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i")}}},
		Reads:  []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i").AddConst(1)}}},
	}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{stmt}}
	deps := Analyze([]*ir.Loop{il}, []*ir.Stmt{stmt})
	var flows, antis int
	for _, d := range deps {
		switch d.Kind {
		case flow:
			flows++
		case anti:
			antis++
			if !d.Exact || d.Distance[0] != 1 {
				t.Errorf("anti distance = %v, want (1)", d.Distance)
			}
		}
	}
	if flows != 0 {
		t.Errorf("backward flow dependence should be pruned, got %d", flows)
	}
	if antis != 1 {
		t.Errorf("anti deps = %d, want 1", antis)
	}
	if ParallelLoop(deps, 0) {
		t.Error("loop carries an anti dependence and must not be parallel")
	}
}

func TestNBodyStyleReduction(t *testing.T) {
	// F[i] += f(P[i], P[j]) over loops i, j.
	stmt := &ir.Stmt{
		Label:  "nbody",
		Writes: []ir.Access{{Array: "F", Indices: []ir.Affine{ir.Var("i")}}},
		Reads: []ir.Access{
			{Array: "F", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "P", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "P", Indices: []ir.Affine{ir.Var("j")}},
		},
		Flops: 10,
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{jl}}
	loops := []*ir.Loop{il, jl}
	deps := Analyze(loops, []*ir.Stmt{stmt})
	if !ParallelLoop(deps, 0) {
		t.Error("i loop should be parallel")
	}
	if ParallelLoop(deps, 1) {
		t.Error("j loop carries the force accumulation")
	}
	if !fullyPermutable(deps, 0, 1) {
		t.Error("nbody nest should be tilable")
	}
}

func TestTriangularCollapseRejected(t *testing.T) {
	// Inner bound depends on the outer iterator: not collapsible even
	// with no dependences.
	stmt := &ir.Stmt{
		Label:  "tri",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Var("i"), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{jl}}
	loops := []*ir.Loop{il, jl}
	deps := Analyze(loops, []*ir.Stmt{stmt})
	if CollapsibleLoops(loops, deps, 0) {
		t.Error("triangular nest must not be collapsible")
	}
	if CollapsibleLoops(loops, deps, 1) {
		t.Error("level+1 out of range must be rejected")
	}
}

func TestReversalAccessLegality(t *testing.T) {
	// A[i] = A[N-1-i]: after lexicographic legalization all carried
	// dependences run forward, so strip-mining the single loop stays
	// legal (band = 1) but the loop must not run in parallel.
	stmt := &ir.Stmt{
		Label:  "rev",
		Writes: []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Var("i")}}},
		Reads:  []ir.Access{{Array: "A", Indices: []ir.Affine{ir.Term("i", -1).AddConst(63)}}},
	}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(64), Step: 1, Body: []ir.Node{stmt}}
	deps := Analyze([]*ir.Loop{il}, []*ir.Stmt{stmt})
	if got := MaxTilableBand(deps, 1); got != 1 {
		t.Errorf("MaxTilableBand = %d, want 1 (strip-mining one loop is always legal)", got)
	}
	if ParallelLoop(deps, 0) {
		t.Error("reversal loop carries dependences and must not be parallel")
	}
}

func TestKindAndDirectionStrings(t *testing.T) {
	if flow.String() != "flow" || anti.String() != "anti" || output.String() != "output" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind should stringify")
	}
	dirs := map[Direction]string{dirZero: "=", dirPos: "<", dirNeg: ">", dirNonNeg: "<=", dirAny: "*"}
	for d, want := range dirs {
		if d.String() != want {
			t.Errorf("Direction %d = %q, want %q", d, d.String(), want)
		}
	}
}

func TestDependenceString(t *testing.T) {
	d := Dependence{Kind: flow, Array: "C", Directions: []Direction{dirZero, dirPos}}
	if d.String() != "flow C (=,<)" {
		t.Errorf("String = %q", d.String())
	}
}

func TestCarriedByOutOfRange(t *testing.T) {
	d := Dependence{Directions: []Direction{dirPos}}
	if d.CarriedBy(5) {
		t.Error("out-of-range level must not be carried")
	}
}
