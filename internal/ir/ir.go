// Package ir defines MiniIR, a compact loop-nest intermediate
// representation in the spirit of the Insieme Parallel Intermediate
// Representation (INSPIRE) restricted to what the auto-tuner needs:
// perfectly or imperfectly nested counted loops with affine bounds,
// statements with affine array accesses, and parallel annotations.
//
// The analyzer (internal/analyzer) finds tunable regions in a MiniIR
// program, the polyhedral package checks transformation legality, and
// the transform package rewrites MiniIR into tiled/collapsed/unrolled
// variants. MiniIR programs can also be lowered to memory-address
// traces for cache simulation (internal/validate).
//
// A program is immutable once built: no node, bound, array or affine
// term slice is written after construction, so programs share them
// freely and expressions share term slices with one another. A
// transformation copies only what it rewrites — the program header,
// its Root slice and the loops of the perfect nest it restructures
// (internal/transform) — and an outlined region is a new header over
// the same nodes. Clone is for the rare caller that must own a mutable
// copy; it shares only the term slices, which no caller can write.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Affine is an affine expression over loop iterators:
// Const + Σ c·v over its terms. The terms are kept sorted by iterator
// name and hold no zero coefficient; a name with no term has
// coefficient zero. Like the rest of a program, a term slice is never
// written once built, so expressions share it: AddConst, and Add of a
// constant, return the receiver's terms with a new constant.
type Affine struct {
	Const int64
	terms []term
}

// term is one c·v of an affine expression, c never zero.
type term struct {
	v string
	c int64
}

// Con returns a constant affine expression.
func Con(c int64) Affine { return Affine{Const: c} }

// Var returns the affine expression 1·name.
func Var(name string) Affine { return Term(name, 1) }

// AppendVars appends Var(name) for each of names to dst and returns the
// extended slice. The expressions' terms are cut from one slab, so the
// iterators a transformation introduces cost one allocation together.
func AppendVars(dst []Affine, names []string) []Affine {
	ts := make([]term, len(names))
	for i, name := range names {
		ts[i] = term{name, 1}
		dst = append(dst, Affine{terms: ts[i : i+1 : i+1]})
	}
	return dst
}

// Term returns the affine expression coeff·name + 0.
func Term(name string, coeff int64) Affine {
	if coeff == 0 {
		return Affine{}
	}
	return Affine{terms: []term{{name, coeff}}}
}

// Add returns a + b.
func (a Affine) Add(b Affine) Affine {
	c := a.Const + b.Const
	switch {
	case len(b.terms) == 0:
		return Affine{Const: c, terms: a.terms}
	case len(a.terms) == 0:
		return Affine{Const: c, terms: b.terms}
	}
	// Merge the two sorted term lists, dropping the sums that cancel.
	ts := make([]term, 0, len(a.terms)+len(b.terms))
	x, y := a.terms, b.terms
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0].v < y[0].v:
			ts, x = append(ts, x[0]), x[1:]
		case y[0].v < x[0].v:
			ts, y = append(ts, y[0]), y[1:]
		default:
			if sum := x[0].c + y[0].c; sum != 0 {
				ts = append(ts, term{x[0].v, sum})
			}
			x, y = x[1:], y[1:]
		}
	}
	ts = append(append(ts, x...), y...)
	if len(ts) == 0 {
		ts = nil
	}
	return Affine{Const: c, terms: ts}
}

// AddConst returns a + c, sharing a's terms.
func (a Affine) AddConst(c int64) Affine { return Affine{Const: a.Const + c, terms: a.terms} }

// Coeff returns the coefficient of iterator v (0 if absent).
func (a Affine) Coeff(v string) int64 {
	for _, t := range a.terms {
		if t.v == v {
			return t.c
		}
	}
	return 0
}

// IsConst reports whether the expression has no iterator terms.
func (a Affine) IsConst() bool { return len(a.terms) == 0 }

// Eval evaluates the expression under the given iterator assignment.
// Iterators missing from env evaluate as zero.
func (a Affine) Eval(env map[string]int64) int64 {
	v := a.Const
	for _, t := range a.terms {
		v += t.c * env[t.v]
	}
	return v
}

// Equal reports whether a and b are the same expression.
func (a Affine) Equal(b Affine) bool {
	if a.Const != b.Const || len(a.terms) != len(b.terms) {
		return false
	}
	for i, t := range a.terms {
		if b.terms[i] != t {
			return false
		}
	}
	return true
}

// String renders the expression in source-like form, e.g. "2*i + j + 3".
func (a Affine) String() string {
	var b strings.Builder
	a.print(&printer{b: &b})
	return b.String()
}

// print renders the expression: the terms in iterator-name order, then
// the constant when it is non-zero or stands alone, joined by " + " —
// or " - " in front of a term that starts with a minus sign.
func (a Affine) print(w *printer) {
	var num [20]byte
	n := 0
	// part writes one part of the sum; minus and body together are the
	// part's text.
	part := func(minus bool, digits []byte, name string) {
		switch {
		case n == 0 && minus:
			w.byte('-')
		case n > 0 && minus:
			w.str(" - ")
		case n > 0:
			w.str(" + ")
		}
		w.bytes(digits)
		w.str(name)
		n++
	}
	for _, t := range a.terms {
		switch t.c {
		case 1:
			part(false, nil, t.v)
		case -1:
			part(true, nil, t.v)
		default:
			digits := append(strconv.AppendInt(num[:0], t.c, 10), '*')
			if t.c < 0 {
				digits = digits[1:]
			}
			part(t.c < 0, digits, t.v)
		}
	}
	if a.Const != 0 || n == 0 {
		digits := strconv.AppendInt(num[:0], a.Const, 10)
		if a.Const < 0 {
			digits = digits[1:]
		}
		part(a.Const < 0, digits, "")
	}
}

// printer writes listings into b, or, with b nil, only counts the bytes
// it would write: n is the count either way. Counting first lets a
// caller size one builder for several listings.
type printer struct {
	b *strings.Builder
	n int
}

func (w *printer) str(s string) {
	if w.b != nil {
		w.b.WriteString(s)
	}
	w.n += len(s)
}

func (w *printer) bytes(p []byte) {
	if w.b != nil {
		w.b.Write(p)
	}
	w.n += len(p)
}

func (w *printer) byte(c byte) {
	if w.b != nil {
		w.b.WriteByte(c)
	}
	w.n++
}

func (w *printer) int(v int64) {
	var num [20]byte
	w.bytes(strconv.AppendInt(num[:0], v, 10))
}

// Array declares an array with an element size and per-dimension
// extents.
type Array struct {
	Name      string
	ElemBytes int
	Dims      []int64
}

// Bytes returns the total footprint of the array.
func (a Array) Bytes() int64 {
	n := int64(a.ElemBytes)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Access is an affine array reference A[f1(iv)][f2(iv)]...
type Access struct {
	Array   string
	Indices []Affine
}

// String renders the access.
func (ac Access) String() string {
	var b strings.Builder
	ac.print(&printer{b: &b})
	return b.String()
}

func (ac Access) print(w *printer) {
	w.str(ac.Array)
	for _, ix := range ac.Indices {
		w.byte('[')
		ix.print(w)
		w.byte(']')
	}
}

func printAccesses(w *printer, acs []Access) {
	for i, ac := range acs {
		if i > 0 {
			w.str(", ")
		}
		ac.print(w)
	}
}

// Clone copies the access. The copy owns its index slice; the
// expressions' term slices, which nothing writes, are shared.
func (ac Access) Clone() Access {
	return Access{Array: ac.Array, Indices: append([]Affine(nil), ac.Indices...)}
}

// Node is a MiniIR tree node: either *Loop or *Stmt.
type Node interface {
	isNode()
	// CloneNode returns a deep copy.
	CloneNode() Node
}

// Stmt is a computational statement characterized by its array reads,
// writes, and floating-point operation count. The actual arithmetic is
// irrelevant to the tuner; only the access pattern and cost matter.
type Stmt struct {
	Label  string
	Writes []Access
	Reads  []Access
	Flops  int64
}

func (*Stmt) isNode() {}

// CloneNode deep-copies the statement.
func (s *Stmt) CloneNode() Node {
	c := &Stmt{Label: s.Label, Flops: s.Flops}
	if len(s.Writes) > 0 {
		c.Writes = make([]Access, len(s.Writes))
		for i, w := range s.Writes {
			c.Writes[i] = w.Clone()
		}
	}
	if len(s.Reads) > 0 {
		c.Reads = make([]Access, len(s.Reads))
		for i, r := range s.Reads {
			c.Reads[i] = r.Clone()
		}
	}
	return c
}

// Accesses returns all accesses; writes first.
func (s *Stmt) Accesses() []Access {
	out := make([]Access, 0, len(s.Writes)+len(s.Reads))
	out = append(out, s.Writes...)
	out = append(out, s.Reads...)
	return out
}

// Loop is a counted loop: for Var := Lo; Var < min(Hi, Caps...); Var += Step.
//
// Caps holds additional upper bounds; the effective bound is the
// minimum of Hi and all Caps. Tiling produces point loops of the form
// "for i = it; i < min(it+T, N)", which is expressed as Hi = it+T with
// Caps = [N].
//
// Parallel marks the loop as parallelized across threads (the outermost
// loop of a tuned region after transformation). Collapse, when > 1,
// states that this parallel loop and the next Collapse-1 perfectly
// nested inner loops are distributed jointly (OpenMP collapse
// semantics); it does not change the iteration order, only the
// parallel-distribution granularity.
type Loop struct {
	Var      string
	Lo, Hi   Affine // half-open interval [Lo, Hi)
	Caps     []Affine
	Step     int64 // > 0
	Parallel bool
	Collapse int // 0 or 1 = no collapsing
	// UnrollPragma > 1 asks the backend compiler to unroll this loop
	// by the given factor (emitted as a pragma rather than performed
	// structurally, keeping non-constant bounds legal).
	UnrollPragma int64
	Body         []Node
}

func (*Loop) isNode() {}

// CloneNode deep-copies the loop and its body.
func (l *Loop) CloneNode() Node {
	c := &Loop{Var: l.Var, Lo: l.Lo, Hi: l.Hi, Step: l.Step,
		Parallel: l.Parallel, Collapse: l.Collapse, UnrollPragma: l.UnrollPragma}
	if len(l.Caps) > 0 {
		c.Caps = append([]Affine(nil), l.Caps...)
	}
	if len(l.Body) > 0 {
		c.Body = make([]Node, len(l.Body))
		for i, n := range l.Body {
			c.Body[i] = n.CloneNode()
		}
	}
	return c
}

// EffectiveHi evaluates min(Hi, Caps...) under env.
func (l *Loop) EffectiveHi(env map[string]int64) int64 {
	hi := l.Hi.Eval(env)
	for _, c := range l.Caps {
		if v := c.Eval(env); v < hi {
			hi = v
		}
	}
	return hi
}

// TripCount returns the number of iterations under env, i.e.
// ceil((min(Hi,Caps)-Lo)/Step), clamped at zero.
func (l *Loop) TripCount(env map[string]int64) int64 {
	span := l.EffectiveHi(env) - l.Lo.Eval(env)
	if span <= 0 {
		return 0
	}
	return (span + l.Step - 1) / l.Step
}

// Program is a MiniIR compilation unit: array declarations plus a
// top-level statement list.
type Program struct {
	Name   string
	Arrays []Array
	Root   []Node
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name}
	if len(p.Arrays) > 0 {
		c.Arrays = make([]Array, len(p.Arrays))
		for i, a := range p.Arrays {
			a.Dims = append([]int64(nil), a.Dims...)
			c.Arrays[i] = a
		}
	}
	if len(p.Root) > 0 {
		c.Root = make([]Node, len(p.Root))
		for i, n := range p.Root {
			c.Root[i] = n.CloneNode()
		}
	}
	return c
}

// ArrayByName returns the declaration of the named array.
func (p *Program) ArrayByName(name string) (Array, bool) {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return Array{}, false
}

// Validate checks that every access targets a declared array with a
// matching dimensionality, every iterator used in an index or bound is
// bound by an enclosing loop, loop steps are positive, and loop
// variable names in a nest are unique.
func (p *Program) Validate() error {
	decl := map[string]Array{}
	for _, a := range p.Arrays {
		if a.Name == "" {
			return fmt.Errorf("ir: array with empty name")
		}
		if a.ElemBytes <= 0 {
			return fmt.Errorf("ir: array %s has non-positive element size", a.Name)
		}
		for _, d := range a.Dims {
			if d <= 0 {
				return fmt.Errorf("ir: array %s has non-positive dimension", a.Name)
			}
		}
		if _, dup := decl[a.Name]; dup {
			return fmt.Errorf("ir: duplicate array %s", a.Name)
		}
		decl[a.Name] = a
	}
	return validateNodes(p.Root, decl, map[string]bool{})
}

func validateNodes(ns []Node, decl map[string]Array, bound map[string]bool) error {
	for _, n := range ns {
		switch x := n.(type) {
		case *Loop:
			if x.Step <= 0 {
				return fmt.Errorf("ir: loop %s has non-positive step", x.Var)
			}
			if bound[x.Var] {
				return fmt.Errorf("ir: loop variable %s shadows an enclosing loop", x.Var)
			}
			if v, ok := unbound(x.Lo, bound); ok {
				return fmt.Errorf("ir: bound of loop %s uses unbound iterator %s", x.Var, v)
			}
			if v, ok := unbound(x.Hi, bound); ok {
				return fmt.Errorf("ir: bound of loop %s uses unbound iterator %s", x.Var, v)
			}
			for _, c := range x.Caps {
				if v, ok := unbound(c, bound); ok {
					return fmt.Errorf("ir: bound of loop %s uses unbound iterator %s", x.Var, v)
				}
			}
			if x.Collapse < 0 {
				return fmt.Errorf("ir: loop %s has negative collapse count", x.Var)
			}
			bound[x.Var] = true
			if err := validateNodes(x.Body, decl, bound); err != nil {
				return err
			}
			delete(bound, x.Var)
		case *Stmt:
			for _, acs := range [...][]Access{x.Writes, x.Reads} {
				for _, ac := range acs {
					a, ok := decl[ac.Array]
					if !ok {
						return fmt.Errorf("ir: access to undeclared array %s", ac.Array)
					}
					if len(ac.Indices) != len(a.Dims) {
						return fmt.Errorf("ir: access %s has %d indices, array has %d dims",
							ac.String(), len(ac.Indices), len(a.Dims))
					}
					for _, ix := range ac.Indices {
						if v, ok := unbound(ix, bound); ok {
							return fmt.Errorf("ir: access %s uses unbound iterator %s", ac.String(), v)
						}
					}
				}
			}
		default:
			return fmt.Errorf("ir: unknown node type %T", n)
		}
	}
	return nil
}

// unbound returns the first iterator of e, in name order, that bound
// does not hold.
func unbound(e Affine, bound map[string]bool) (string, bool) {
	for _, t := range e.terms {
		if !bound[t.v] {
			return t.v, true
		}
	}
	return "", false
}

// PerfectNest returns the loops of the outermost perfect nest rooted at
// n and the statements at its innermost level. A nest is perfect while
// each loop body contains exactly one node that is a loop; the chain
// stops at the first multi-node or statement-only body.
func PerfectNest(n Node) (loops []*Loop, body []*Stmt) {
	cur := n
	for {
		l, ok := cur.(*Loop)
		if !ok {
			break
		}
		loops = append(loops, l)
		if len(l.Body) == 1 {
			if inner, ok := l.Body[0].(*Loop); ok {
				cur = inner
				continue
			}
		}
		for _, bn := range l.Body {
			if s, ok := bn.(*Stmt); ok {
				body = append(body, s)
			}
		}
		break
	}
	return loops, body
}

// Walk calls fn for every node in pre-order. Returning false from fn
// stops descent into that node's children.
func Walk(ns []Node, fn func(Node) bool) {
	for _, n := range ns {
		if !fn(n) {
			continue
		}
		if l, ok := n.(*Loop); ok {
			Walk(l.Body, fn)
		}
	}
}

// String renders the program as pseudo-C for debugging and for the
// multi-versioning backend's human-readable code listing: what Print
// writes.
func (p *Program) String() string {
	var b strings.Builder
	b.Grow(1 << 10) // a tiled three-deep nest prints ~0.7 KiB; skip the doublings up to it
	p.Print(&b)
	return b.String()
}

// Print writes the program's listing — String — into b, without fmt,
// so that a tuned unit renders the listings of all its versions into
// one builder.
func (p *Program) Print(b *strings.Builder) { p.print(&printer{b: b}) }

// ListingLen returns the length in bytes of the listing Print writes,
// without writing it: what a builder for several listings is grown by.
func (p *Program) ListingLen() int {
	var w printer
	p.print(&w)
	return w.n
}

func (p *Program) print(w *printer) {
	w.str("// program ")
	w.str(p.Name)
	w.byte('\n')
	for _, a := range p.Arrays {
		w.str("double ")
		w.str(a.Name)
		for _, d := range a.Dims {
			w.byte('[')
			w.int(d)
			w.byte(']')
		}
		w.str(";\n")
	}
	printNodes(w, p.Root, 0)
}

func printNodes(w *printer, ns []Node, depth int) {
	indent := func() {
		for i := 0; i < depth; i++ {
			w.str("  ")
		}
	}
	for _, n := range ns {
		switch x := n.(type) {
		case *Loop:
			if x.UnrollPragma > 1 {
				indent()
				w.str("#pragma unroll(")
				w.int(x.UnrollPragma)
				w.str(")\n")
			}
			indent()
			if x.Parallel {
				w.str("#pragma omp parallel for")
				if x.Collapse > 1 {
					w.str(" collapse(")
					w.int(int64(x.Collapse))
					w.byte(')')
				}
				w.byte('\n')
				indent()
			}
			w.str("for (")
			w.str(x.Var)
			w.str(" = ")
			x.Lo.print(w)
			w.str("; ")
			w.str(x.Var)
			w.str(" < ")
			// min(min(Hi, cap0), cap1)...
			for range x.Caps {
				w.str("min(")
			}
			x.Hi.print(w)
			for _, c := range x.Caps {
				w.str(", ")
				c.print(w)
				w.byte(')')
			}
			w.str("; ")
			w.str(x.Var)
			if x.Step != 1 {
				w.str(" += ")
				w.int(x.Step)
			} else {
				w.str("++")
			}
			w.str(") {\n")
			printNodes(w, x.Body, depth+1)
			indent()
			w.str("}\n")
		case *Stmt:
			indent()
			printAccesses(w, x.Writes)
			w.str(" = f(")
			printAccesses(w, x.Reads)
			w.str("); // ")
			w.str(x.Label)
			w.str(", ")
			w.int(x.Flops)
			w.str(" flops\n")
		}
	}
}
