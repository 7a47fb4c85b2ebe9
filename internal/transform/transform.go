// Package transform implements the loop transformations the
// auto-tuner's transformation skeletons are built from: rectangular
// tiling of a permutable band, loop collapsing before parallelization,
// parallelization of the outermost loop, and unroll pragmas.
//
// Transformations operate on MiniIR (internal/ir) and return new
// programs, leaving their input untouched. A MiniIR program is never
// written once built, so a transformation copies only what it
// rewrites: Apply (and Tile) copy the program header, its Root slice
// and the loops of the perfect nest at Root[0] — the spine — once, and
// share arrays, statements and affine bounds with the input. The
// rewrites write only that spine and the loops they build.
//
// Legality is *not* re-checked here — the analyzer (internal/analyzer)
// combines the polyhedral legality tests with these mechanical
// rewrites; transform only validates structural applicability (nest
// depth, rectangularity where required).
package transform

import (
	"fmt"

	"autotune/internal/ir"
)

// Tile strip-mines the outermost band of `len(tiles)` loops of the
// perfect nest rooted at the program's first top-level node and sinks
// the point loops inside, producing the classic tiled form:
//
//	for it ...  for jt ...          (tile loops, step = tile size)
//	  for i = it; i < min(it+Ti, N) (point loops, step = 1)
//
// A tile size of 0 or 1 leaves the corresponding loop untiled but the
// loop still counts toward the band. Tile sizes larger than the
// iteration count are legal (single tile). The original program is not
// modified.
func Tile(p *ir.Program, tiles []int64) (*ir.Program, error) {
	out := spine(p)
	if err := tile(out, tiles); err != nil {
		return nil, err
	}
	return out, nil
}

// maxNest sizes the stack buffers the rewrites read a nest into; a
// deeper nest spills to the heap.
const maxNest = 16

// nest appends to buf the loops of the perfect nest rooted at n — the
// loops ir.PerfectNest returns — and returns the extended buffer.
func nest(buf []*ir.Loop, n ir.Node) []*ir.Loop {
	for {
		l, ok := n.(*ir.Loop)
		if !ok {
			return buf
		}
		buf = append(buf, l)
		if len(l.Body) != 1 {
			return buf
		}
		n = l.Body[0]
	}
}

// spine copies what a rewrite may write: the program header, its Root
// slice and the loops of the perfect nest at Root[0]. The copies are
// linked through one slab of nodes: nodes[i] is the i-th copy, and
// nodes[i+1:i+2], capped, is the body of the one before it. The
// innermost copy's body, the arrays, the statements and every bound
// are shared with p.
func spine(p *ir.Program) *ir.Program {
	out := &ir.Program{Name: p.Name, Arrays: p.Arrays}
	if len(p.Root) == 0 {
		return out
	}
	out.Root = append([]ir.Node(nil), p.Root...)
	var buf [maxNest]*ir.Loop
	loops := nest(buf[:0], p.Root[0])
	if len(loops) == 0 {
		return out
	}
	copies := make([]ir.Loop, len(loops))
	nodes := make([]ir.Node, len(loops))
	for i, l := range loops {
		copies[i] = *l
		nodes[i] = &copies[i]
	}
	link(nodes)
	out.Root[0] = nodes[0]
	return out
}

// link makes each loop of chain the one-node body of the loop before
// it, cutting the bodies from chain itself with their capacity capped.
func link(chain []ir.Node) {
	for i := 0; i < len(chain)-1; i++ {
		chain[i].(*ir.Loop).Body = chain[i+1 : i+2 : i+2]
	}
}

// The unexported rewrites below transform the program they are given:
// they write its header, its Root slice and the loops of its perfect
// nest — the copies spine made — and nothing else. Each validates
// everything before it writes anything, so a rewrite that fails has
// not touched its program.

func tile(out *ir.Program, tiles []int64) error {
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	var buf [maxNest]*ir.Loop
	loops := nest(buf[:0], out.Root[0])
	if len(tiles) == 0 {
		return nil
	}
	if len(tiles) > len(loops) {
		return fmt.Errorf("transform: %d tile sizes for a %d-deep nest", len(tiles), len(loops))
	}
	for _, t := range tiles {
		if t < 0 {
			return fmt.Errorf("transform: negative tile size %d", t)
		}
	}
	band := loops[:len(tiles)]
	tiled, ncaps := 0, 0
	for idx, l := range band {
		if tiles[idx] <= 1 {
			continue
		}
		if l.Step != 1 {
			return fmt.Errorf("transform: cannot tile loop %s with step %d", l.Var, l.Step)
		}
		tiled++
		ncaps += len(l.Caps) + 1
	}
	if tiled == 0 {
		return nil // every level untiled: the nest is already in point form
	}

	// The new nest is a chain: tile loops for every tiled level, then
	// the band's levels in order — a new point loop where the level is
	// tiled, the loop itself where it is not — then the body below the
	// band. The new loops, the chain (which holds their one-node
	// bodies) and the point loops' caps each come from one slab; bounds
	// are shared with the band.
	innerBody := band[len(band)-1].Body
	slab := make([]ir.Loop, 2*tiled) // tile loops, then point loops
	caps := make([]ir.Affine, ncaps)
	chain := make([]ir.Node, tiled+len(band))
	k := 0
	for idx, l := range band {
		t := tiles[idx]
		if t <= 1 {
			chain[tiled+idx] = l
			continue
		}
		tv := l.Var + "_t"
		slab[k] = ir.Loop{Var: tv, Lo: l.Lo, Hi: l.Hi, Caps: l.Caps, Step: t}
		n := len(l.Caps) + 1
		pointCaps := caps[:n:n]
		caps = caps[n:]
		copy(pointCaps, l.Caps)
		pointCaps[len(l.Caps)] = l.Hi
		lo := ir.Var(tv)
		slab[tiled+k] = ir.Loop{
			Var:  l.Var,
			Lo:   lo,
			Hi:   lo.AddConst(t), // it + T, sharing lo's term
			Caps: pointCaps,
			Step: 1,
		}
		chain[k] = &slab[k]
		chain[tiled+idx] = &slab[tiled+k]
		k++
	}
	link(chain)
	chain[len(chain)-1].(*ir.Loop).Body = innerBody
	out.Root[0] = chain[0]
	return nil
}

func parallelize(out *ir.Program, collapse int) error {
	if collapse < 1 {
		return fmt.Errorf("transform: collapse must be >= 1, got %d", collapse)
	}
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	var buf [maxNest]*ir.Loop
	loops := nest(buf[:0], out.Root[0])
	if len(loops) == 0 {
		return fmt.Errorf("transform: no loop to parallelize")
	}
	if collapse > len(loops) {
		return fmt.Errorf("transform: collapse %d exceeds nest depth %d", collapse, len(loops))
	}
	for i := 1; i < collapse; i++ {
		l, outer := loops[i], loops[:i]
		v, ok := outerIterator(l.Lo, outer)
		if !ok {
			v, ok = outerIterator(l.Hi, outer)
		}
		for c := 0; !ok && c < len(l.Caps); c++ {
			v, ok = outerIterator(l.Caps[c], outer)
		}
		if ok {
			return fmt.Errorf("transform: collapsed loop %s has non-rectangular bound on %s", l.Var, v)
		}
	}
	loops[0].Parallel = true
	loops[0].Collapse = collapse
	return nil
}

// outerIterator returns the first iterator of the outer loops that
// bound depends on.
func outerIterator(bound ir.Affine, outer []*ir.Loop) (string, bool) {
	for _, o := range outer {
		if bound.Coeff(o.Var) != 0 {
			return o.Var, true
		}
	}
	return "", false
}

func annotateUnroll(out *ir.Program, factor int64) error {
	if factor < 1 {
		return fmt.Errorf("transform: unroll pragma factor must be >= 1, got %d", factor)
	}
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	var buf [maxNest]*ir.Loop
	loops := nest(buf[:0], out.Root[0])
	if len(loops) == 0 {
		return fmt.Errorf("transform: no loop to annotate")
	}
	inner := loops[len(loops)-1]
	if factor == 1 {
		inner.UnrollPragma = 0
	} else {
		inner.UnrollPragma = factor
	}
	return nil
}

// Apply returns a tuned version of p: one copy of p's spine, tiled
// with tiles, its outermost loop parallelized with collapse loops in
// the parallel distribution (1 parallelizes just the outermost loop),
// and, when unroll is not 0, the innermost loop of its perfect nest
// marked with an unroll pragma of that factor (1 clears the pragma).
// The loops a collapse takes in must be rectangular: no bound of an
// inner collapsed loop may depend on an outer collapsed iterator. An
// unroll pragma is legal for any bounds; the backend compiler handles
// remainders.
//
// The three rewrites run in that order on the one copy, so p itself is
// never modified. An error — Apply stops at the first, naming its
// rewrite as step 0, 1 or 2 — returns no program at all, so a
// half-transformed one is never visible.
func Apply(p *ir.Program, tiles []int64, collapse int, unroll int64) (*ir.Program, error) {
	out := spine(p)
	if err := tile(out, tiles); err != nil {
		return nil, fmt.Errorf("transform: step 0: %w", err)
	}
	if err := parallelize(out, collapse); err != nil {
		return nil, fmt.Errorf("transform: step 1: %w", err)
	}
	if unroll != 0 {
		if err := annotateUnroll(out, unroll); err != nil {
			return nil, fmt.Errorf("transform: step 2: %w", err)
		}
	}
	return out, nil
}
