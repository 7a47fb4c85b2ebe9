package ir_test

// The fmt-based program printer exactly as it stood before the
// builder-based one replaced it, kept as a reference:
// TestProgramStringMatchesReference holds Program.String to its bytes,
// and ListingLen to their length, over every registered kernel × a grid
// of skeleton configurations (the programs a tuned unit prints), and
// over hand-built expressions for the sign and ordering rules of
// Affine.String.

import (
	"fmt"
	"strings"
	"testing"

	"autotune/internal/analyzer"
	"autotune/internal/ir"
	"autotune/internal/kernels"
	"autotune/internal/skeleton"
	"autotune/internal/transform"
)

// refAffineString is the fmt printer, over the terms as the map-based
// reference holds them (affine_reference_test.go).
func refAffineString(a ir.Affine) string { return ir.RefOf(a).String() }

func refAccessString(ac ir.Access) string {
	var b strings.Builder
	b.WriteString(ac.Array)
	for _, ix := range ac.Indices {
		fmt.Fprintf(&b, "[%s]", refAffineString(ix))
	}
	return b.String()
}

func refProgramString(p *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// program %s\n", p.Name)
	for _, a := range p.Arrays {
		fmt.Fprintf(&b, "double %s", a.Name)
		for _, d := range a.Dims {
			fmt.Fprintf(&b, "[%d]", d)
		}
		b.WriteString(";\n")
	}
	refPrintNodes(&b, p.Root, 0)
	return b.String()
}

func refPrintNodes(b *strings.Builder, ns []ir.Node, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Loop:
			par := ""
			if x.Parallel {
				par = "#pragma omp parallel for"
				if x.Collapse > 1 {
					par += fmt.Sprintf(" collapse(%d)", x.Collapse)
				}
				par += "\n" + ind
			}
			step := ""
			if x.Step != 1 {
				step = fmt.Sprintf(" += %d", x.Step)
			} else {
				step = "++"
			}
			if x.UnrollPragma > 1 {
				fmt.Fprintf(b, "%s#pragma unroll(%d)\n", ind, x.UnrollPragma)
			}
			hi := refAffineString(x.Hi)
			for _, c := range x.Caps {
				hi = fmt.Sprintf("min(%s, %s)", hi, refAffineString(c))
			}
			fmt.Fprintf(b, "%s%sfor (%s = %s; %s < %s; %s%s) {\n",
				ind, par, x.Var, refAffineString(x.Lo), x.Var, hi, x.Var, step)
			refPrintNodes(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *ir.Stmt:
			var lhs, rhs []string
			for _, w := range x.Writes {
				lhs = append(lhs, refAccessString(w))
			}
			for _, r := range x.Reads {
				rhs = append(rhs, refAccessString(r))
			}
			fmt.Fprintf(b, "%s%s = f(%s); // %s, %d flops\n",
				ind, strings.Join(lhs, ", "), strings.Join(rhs, ", "), x.Label, x.Flops)
		}
	}
}

func TestProgramStringMatchesReference(t *testing.T) {
	check := func(t *testing.T, what string, p *ir.Program) {
		t.Helper()
		got, want := p.String(), refProgramString(p)
		if got != want {
			t.Fatalf("%s: Program.String differs from the fmt printer:\n%s\nreference:\n%s", what, got, want)
		}
		// The counting pass a unit sizes its listings' builder by.
		if n := p.ListingLen(); n != len(want) {
			t.Fatalf("%s: ListingLen %d, the listing is %d bytes", what, n, len(want))
		}
	}
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			prog := k.IR(k.DefaultN)
			check(t, "untransformed", prog)
			regions, err := analyzer.Analyze(prog, analyzer.Options{MaxThreads: 16})
			if err != nil {
				t.Fatal(err)
			}
			region := regions[0]
			outlined := region.Outline(prog)
			check(t, "outlined", outlined)
			unrolled := skeleton.TiledParallelUnroll(region.Skeleton.Name,
				region.Band, region.MaxTile, 16, region.Collapsible, 8)
			printed := 0
			for _, sk := range []*skeleton.Skeleton{region.Skeleton, unrolled} {
				// Every corner and a few interior values per dimension:
				// unit tiles (no tile loop, collapse(1)), tiles above the
				// trip count, mixed tiled/untiled bands, unroll 1 and > 1.
				grid := make([][]int64, sk.Space.Dim())
				for d, prm := range sk.Space.Params {
					for _, v := range []int64{prm.Min, prm.Min + 1, 7, 32, prm.Max - 1, prm.Max} {
						if v >= prm.Min && v <= prm.Max {
							grid[d] = append(grid[d], v)
						}
					}
				}
				cfg := make(skeleton.Config, len(grid))
				var walk func(d int)
				walk = func(d int) {
					if d == len(grid) {
						out, _, err := sk.Apply(outlined, cfg)
						if err != nil {
							t.Fatalf("%v: %v", cfg, err)
						}
						check(t, fmt.Sprint(cfg), out[0])
						printed++
						return
					}
					for _, v := range grid[d] {
						cfg[d] = v
						walk(d + 1)
					}
				}
				walk(0)
			}
			if printed < 100 {
				t.Fatalf("only %d configurations printed", printed)
			}
		})
	}

	// What no kernel's skeleton emits: a structurally unrolled body
	// (substituted iterators, relabelled statements), non-unit steps
	// and several caps on one loop.
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	versions, _, err := transform.Apply(mm.IR(16), transform.Version{Tiles: []int64{4, 4}, Collapse: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := versions[0]
	loops, _ := ir.PerfectNest(p.Root[0])
	inner := loops[len(loops)-1]
	stmt := inner.Body[0].(*ir.Stmt)
	inner.Body, inner.Step = nil, 4
	for u := int64(0); u < inner.Step; u++ {
		s := stmt.CloneNode().(*ir.Stmt)
		shiftIter(s, inner.Var, u)
		s.Label = fmt.Sprintf("%s (unroll %d)", s.Label, u)
		inner.Body = append(inner.Body, s)
	}
	check(t, "tile+parallelize+unrolled by hand", p)
	p, err = transform.Tile(p, []int64{0, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "tiled twice", p)
}

// shiftIter rewrites iterator v to v+u in every access of s: what
// unrolling does to the u-th copy of a loop body.
func shiftIter(s *ir.Stmt, v string, u int64) {
	for _, accesses := range [][]ir.Access{s.Writes, s.Reads} {
		for _, ac := range accesses {
			for i := range ac.Indices {
				ac.Indices[i].Const += ac.Indices[i].Coeff(v) * u
			}
		}
	}
}

func TestAffineStringMatchesReference(t *testing.T) {
	const minInt = -1 << 63
	exprs := []ir.Affine{
		{},
		ir.Con(0), ir.Con(7), ir.Con(-7), ir.Con(minInt),
		ir.Var("i"), ir.Term("i", -1), ir.Term("i", 2), ir.Term("i", -2), ir.Term("i", 0),
		ir.Var("i").AddConst(3), ir.Var("i").AddConst(-3), ir.Term("i", -1).AddConst(-3),
		ir.Var("j").Add(ir.Var("i")), ir.Var("j").Add(ir.Term("i", -1)), ir.Term("k", -4).Add(ir.Term("a", -1)).AddConst(5),
		ir.Term("z", 3).Add(ir.Term("y", -3)).Add(ir.Var("x")).Add(ir.Term("w", -1)).Add(ir.Term("v", 9)).AddConst(-1),
		ir.Term("i", 0).Add(ir.Var("j")).AddConst(2),
		ir.Term("i", minInt).Add(ir.Term("j", minInt)),
		ir.Var("it").AddConst(64),
	}
	for _, e := range exprs {
		if got, want := e.String(), refAffineString(e); got != want {
			t.Errorf("Affine%+v.String() = %q, fmt reference %q", e, got, want)
		}
		ac := ir.Access{Array: "A", Indices: []ir.Affine{e, ir.Con(1), e}}
		if got, want := ac.String(), refAccessString(ac); got != want {
			t.Errorf("Access.String() = %q, fmt reference %q", got, want)
		}
	}
}

// tiledMM is the kind of program a tuned unit lists: the mm region
// tiled on all three levels, collapsed and parallelized.
func tiledMM(tb testing.TB) *ir.Program {
	tb.Helper()
	mm, err := kernels.ByName("mm")
	if err != nil {
		tb.Fatal(err)
	}
	versions, _, err := transform.Apply(mm.IR(mm.DefaultN), transform.Version{Tiles: []int64{64, 32, 16}, Collapse: 2, Unroll: 4})
	if err != nil {
		tb.Fatal(err)
	}
	p := versions[0]
	return p
}

var listingSink string

func BenchmarkProgramString(b *testing.B) {
	p := tiledMM(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		listingSink = p.String()
	}
}

// BenchmarkProgramStringReference is the fmt printer on the same
// program.
func BenchmarkProgramStringReference(b *testing.B) {
	p := tiledMM(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		listingSink = refProgramString(p)
	}
}
