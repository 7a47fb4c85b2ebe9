package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAffineArithmetic(t *testing.T) {
	a := Term("i", 2).Add(Con(3)) // 2i + 3
	b := Var("j").Add(Var("i"))   // i + j
	sum := a.Add(b)               // 3i + j + 3
	if sum.Coeff("i") != 3 || sum.Coeff("j") != 1 || sum.Const != 3 {
		t.Fatalf("sum = %v", sum)
	}
	diff := a.Add(Term("i", -2).AddConst(-3))
	if !diff.IsConst() || diff.Const != 0 {
		t.Fatalf("a-a = %v, want 0", diff)
	}
}

func TestAffineEval(t *testing.T) {
	e := Term("i", 2).Add(Term("j", -1)).AddConst(5)
	got := e.Eval(map[string]int64{"i": 3, "j": 4})
	if got != 2*3-4+5 {
		t.Fatalf("eval = %d, want 7", got)
	}
	// Missing iterators evaluate as zero.
	if e.Eval(nil) != 5 {
		t.Fatalf("eval(nil) = %d, want 5", e.Eval(nil))
	}
}

// TestAffineVars: an expression's terms are its iterators with
// non-zero coefficients, in name order.
func TestAffineVars(t *testing.T) {
	e := Var("k").Add(Var("ii")).Add(Term("z", 0))
	if len(e.terms) != 2 || e.terms[0] != (term{"ii", 1}) || e.terms[1] != (term{"k", 1}) {
		t.Fatalf("terms = %v", e.terms)
	}
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		e    Affine
		want string
	}{
		{Con(0), "0"},
		{Con(-4), "-4"},
		{Var("i"), "i"},
		{Term("i", -1), "-i"},
		{Term("i", 2).Add(Var("j")).AddConst(3), "2*i + j + 3"},
		{Var("i").AddConst(-1), "i - 1"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAffineNormalizeDropsZeros(t *testing.T) {
	e := Var("i").Add(Var("j")).Add(Term("i", -1))
	if len(e.terms) != 1 || e.Coeff("i") != 0 || !Var("i").Add(Term("i", -1)).IsConst() {
		t.Fatalf("zero coefficient not dropped: %v", e.terms)
	}
}

// TestAffineSharesTerms: adding a constant, or an expression with no
// terms, returns the receiver's terms with a new constant — the term
// slice is never written once built — and a constant has none.
func TestAffineSharesTerms(t *testing.T) {
	e := Term("i", 2).Add(Var("j"))
	for _, f := range []Affine{e.AddConst(5), e.Add(Con(-1)), Con(4).Add(e)} {
		if &f.terms[0] != &e.terms[0] || len(f.terms) != len(e.terms) {
			t.Fatalf("%v does not share the terms of %v", f, e)
		}
	}
	if c := Con(3).AddConst(4); c.terms != nil || c.Const != 7 {
		t.Fatalf("constant = %+v", c)
	}
	if got := testing.AllocsPerRun(100, func() { e = e.AddConst(1) }); got != 0 {
		t.Fatalf("AddConst allocates %v times", got)
	}
}

func TestArrayBytes(t *testing.T) {
	a := Array{Name: "A", ElemBytes: 8, Dims: []int64{100, 50}}
	if a.Bytes() != 8*100*50 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

// allLoops returns all loops in the subtree, outermost first.
func allLoops(ns []Node) []*Loop {
	var out []*Loop
	Walk(ns, func(n Node) bool {
		if l, ok := n.(*Loop); ok {
			out = append(out, l)
		}
		return true
	})
	return out
}

// allStmts returns all statements in the subtree, in textual order.
func allStmts(ns []Node) []*Stmt {
	var out []*Stmt
	Walk(ns, func(n Node) bool {
		if s, ok := n.(*Stmt); ok {
			out = append(out, s)
		}
		return true
	})
	return out
}

// mmProgram builds the paper's Fig. 7 IJK matrix-multiply nest.
func mmProgram(n int64) *Program {
	stmt := &Stmt{
		Label:  "C[i][j] += A[i][k]*B[k][j]",
		Writes: []Access{{Array: "C", Indices: []Affine{Var("i"), Var("j")}}},
		Reads: []Access{
			{Array: "C", Indices: []Affine{Var("i"), Var("j")}},
			{Array: "A", Indices: []Affine{Var("i"), Var("k")}},
			{Array: "B", Indices: []Affine{Var("k"), Var("j")}},
		},
		Flops: 2,
	}
	kl := &Loop{Var: "k", Lo: Con(0), Hi: Con(n), Step: 1, Body: []Node{stmt}}
	jl := &Loop{Var: "j", Lo: Con(0), Hi: Con(n), Step: 1, Body: []Node{kl}}
	il := &Loop{Var: "i", Lo: Con(0), Hi: Con(n), Step: 1, Body: []Node{jl}}
	return &Program{
		Name: "mm",
		Arrays: []Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "C", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []Node{il},
	}
}

func TestValidateAcceptsMM(t *testing.T) {
	if err := mmProgram(16).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Program { return mmProgram(8) }
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"undeclared array", func(p *Program) {
			s := allStmts(p.Root)[0]
			s.Reads = append(s.Reads, Access{Array: "Z", Indices: []Affine{Con(0), Con(0)}})
		}},
		{"dimension mismatch", func(p *Program) {
			s := allStmts(p.Root)[0]
			s.Reads[0].Indices = s.Reads[0].Indices[:1]
		}},
		{"unbound iterator in access", func(p *Program) {
			s := allStmts(p.Root)[0]
			s.Reads[0].Indices[0] = Var("w")
		}},
		{"non-positive step", func(p *Program) {
			allLoops(p.Root)[0].Step = 0
		}},
		{"shadowed loop var", func(p *Program) {
			allLoops(p.Root)[2].Var = "i"
		}},
		{"unbound iterator in bound", func(p *Program) {
			allLoops(p.Root)[0].Hi = Var("q")
		}},
		{"duplicate array", func(p *Program) {
			p.Arrays = append(p.Arrays, Array{Name: "A", ElemBytes: 8, Dims: []int64{1}})
		}},
		{"bad element size", func(p *Program) { p.Arrays[0].ElemBytes = 0 }},
		{"bad dim", func(p *Program) { p.Arrays[0].Dims[0] = 0 }},
	}
	for _, c := range cases {
		p := base()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := mmProgram(8)
	c := p.Clone()
	allLoops(c.Root)[0].Hi = Con(99)
	allStmts(c.Root)[0].Flops = 42
	if allLoops(p.Root)[0].Hi.Const != 8 {
		t.Fatal("clone shares loop bounds with original")
	}
	if allStmts(p.Root)[0].Flops != 2 {
		t.Fatal("clone shares statements with original")
	}
	c.Arrays[0].Dims[0] = 1
	if p.Arrays[0].Dims[0] != 8 {
		t.Fatal("clone shares array dims")
	}
}

func TestPerfectNest(t *testing.T) {
	p := mmProgram(8)
	loops, body := PerfectNest(p.Root[0])
	if len(loops) != 3 {
		t.Fatalf("nest depth = %d, want 3", len(loops))
	}
	if loops[0].Var != "i" || loops[1].Var != "j" || loops[2].Var != "k" {
		t.Fatalf("loop order = %s,%s,%s", loops[0].Var, loops[1].Var, loops[2].Var)
	}
	if len(body) != 1 {
		t.Fatalf("body stmts = %d, want 1", len(body))
	}
}

func TestPerfectNestStopsAtImperfection(t *testing.T) {
	p := mmProgram(8)
	// Insert a statement next to the k loop, making the j body imperfect.
	jl := allLoops(p.Root)[1]
	jl.Body = append(jl.Body, &Stmt{Label: "extra"})
	loops, _ := PerfectNest(p.Root[0])
	if len(loops) != 2 {
		t.Fatalf("nest depth = %d, want 2 (stops at imperfect body)", len(loops))
	}
}

func TestTripCount(t *testing.T) {
	l := &Loop{Var: "i", Lo: Con(0), Hi: Con(10), Step: 3}
	if got := l.TripCount(nil); got != 4 {
		t.Fatalf("trip = %d, want 4", got)
	}
	l2 := &Loop{Var: "i", Lo: Con(5), Hi: Con(5), Step: 1}
	if got := l2.TripCount(nil); got != 0 {
		t.Fatalf("empty trip = %d, want 0", got)
	}
	// Bound depending on an outer iterator.
	l3 := &Loop{Var: "j", Lo: Con(0), Hi: Var("i"), Step: 1}
	if got := l3.TripCount(map[string]int64{"i": 7}); got != 7 {
		t.Fatalf("trip = %d, want 7", got)
	}
}

func TestWalkPreOrderAndPruning(t *testing.T) {
	p := mmProgram(8)
	var visited []string
	Walk(p.Root, func(n Node) bool {
		if l, ok := n.(*Loop); ok {
			visited = append(visited, l.Var)
			return l.Var != "j" // prune below j
		}
		visited = append(visited, "stmt")
		return true
	})
	if strings.Join(visited, ",") != "i,j" {
		t.Fatalf("visited = %v", visited)
	}
}

func TestStmtsAndLoops(t *testing.T) {
	p := mmProgram(8)
	if len(allStmts(p.Root)) != 1 {
		t.Fatal("Stmts wrong")
	}
	ls := allLoops(p.Root)
	if len(ls) != 3 || ls[0].Var != "i" {
		t.Fatal("Loops wrong")
	}
}

func TestProgramString(t *testing.T) {
	s := mmProgram(4).String()
	for _, want := range []string{"program mm", "double A[4][4];", "for (i = 0; i < 4; i++)", "C[i][j]", "2 flops"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestProgramStringParallelAndStep(t *testing.T) {
	p := mmProgram(4)
	l := allLoops(p.Root)[0]
	l.Parallel = true
	l.Step = 2
	s := p.String()
	if !strings.Contains(s, "#pragma omp parallel for") || !strings.Contains(s, "i += 2") {
		t.Errorf("parallel/step rendering missing:\n%s", s)
	}
}

func TestArrayByName(t *testing.T) {
	p := mmProgram(4)
	a, ok := p.ArrayByName("B")
	if !ok || a.Name != "B" {
		t.Fatal("ArrayByName failed")
	}
	if _, ok := p.ArrayByName("Q"); ok {
		t.Fatal("found nonexistent array")
	}
}

// Property: Add is commutative and Eval is linear w.r.t. Add.
func TestAffineAddProperty(t *testing.T) {
	f := func(c1, c2, i1, i2 int32, vi, vj int16) bool {
		a := Term("i", int64(c1)).AddConst(int64(i1))
		b := Term("j", int64(c2)).AddConst(int64(i2))
		env := map[string]int64{"i": int64(vi), "j": int64(vj)}
		ab := a.Add(b)
		ba := b.Add(a)
		return ab.Equal(ba) && ab.Eval(env) == a.Eval(env)+b.Eval(env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
