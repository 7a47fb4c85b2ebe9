// Package transform implements the loop transformations the
// auto-tuner's transformation skeletons are built from: rectangular
// tiling of a permutable band, loop collapsing before parallelization,
// parallelization of the outermost loop, and unroll pragmas.
//
// Transformations operate on MiniIR (internal/ir) and return new
// programs, leaving their input untouched. A MiniIR program is never
// written once built, so a transformation copies only what it
// rewrites: a version holds its own program header, Root slice and
// loops of the perfect nest at Root[0] — the spine — and shares
// arrays, statements and affine bounds with the input. Apply builds
// every version of a batch from slabs sized for the whole batch.
//
// Legality is *not* re-checked here — the analyzer (internal/analyzer)
// combines the polyhedral legality tests with these mechanical
// rewrites; transform only validates structural applicability (nest
// depth, rectangularity where required).
package transform

import (
	"fmt"
	"strings"

	"autotune/internal/ir"
)

// Version is one tuned version of a program: the outermost band of
// len(Tiles) loops of its perfect nest tiled (a size of 0 or 1 leaves
// its loop untiled), its outermost loop parallelized with Collapse
// loops in the parallel distribution (1 parallelizes just the
// outermost loop), and, when Unroll is not 0, the innermost loop of
// its perfect nest marked with an unroll pragma of that factor (1
// clears the pragma). The loops a collapse takes in must be
// rectangular: no bound of an inner collapsed loop may depend on an
// outer collapsed iterator. An unroll pragma is legal for any bounds;
// the backend compiler handles remainders.
type Version struct {
	Tiles    []int64
	Collapse int
	Unroll   int64
}

// Apply returns one tuned version of p per element of vs, in order:
// the band tiled into the classic tiled form
//
//	for it ...  for jt ...          (tile loops, step = tile size)
//	  for i = it; i < min(it+Ti, N) (point loops, step = 1)
//
// then parallelized, then annotated — the three rewrites as steps 0,
// 1 and 2. Every version is checked before any is built, and all of
// them are cut from one slab each of headers, nodes, loops and caps;
// a tile iterator's name and expression are built once, on the first
// version that tiles, and shared by every version that tiles its
// level. p itself is never modified.
//
// If a version cannot be built, Apply returns no program at all, the
// index of the first such version, and the error naming the step that
// refuses it; the index means nothing without an error.
func Apply(p *ir.Program, vs ...Version) ([]*ir.Program, int, error) {
	return apply(p, vs, false)
}

// Tile strip-mines the outermost band of `len(tiles)` loops of the
// perfect nest rooted at the program's first top-level node and sinks
// the point loops inside, as Apply's first step does, and neither
// parallelizes nor annotates. A tile size of 0 or 1 leaves the
// corresponding loop untiled but the loop still counts toward the
// band. Tile sizes larger than the iteration count are legal (single
// tile). The original program is not modified.
func Tile(p *ir.Program, tiles []int64) (*ir.Program, error) {
	out, _, err := apply(p, []Version{{Tiles: tiles}}, true)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// maxNest sizes the stack buffers a batch reads a nest into; a deeper
// nest spills to the heap.
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

// batch is what every version of one Apply shares: the input, the
// loops of its perfect nest, and the tile iterators of those loops
// once a version tiles one. Its methods take it by value, so that the
// stack buffers its slices start in stay on the stack.
type batch struct {
	p     *ir.Program
	loops []*ir.Loop
	// names[i] is loops[i].Var + "_t", vars[i] its one-term
	// expression; both are empty until a version tiles.
	names []string
	vars  []ir.Affine
}

func apply(p *ir.Program, vs []Version, tileOnly bool) ([]*ir.Program, int, error) {
	var loopBuf [maxNest]*ir.Loop
	var nameBuf [maxNest]string
	var varBuf [maxNest]ir.Affine
	b := batch{p: p}
	if len(p.Root) > 0 {
		b.loops = nest(loopBuf[:0], p.Root[0])
	}
	nLoops, nNodes, nCaps := 0, 0, 0
	for i, v := range vs {
		if len(b.names) == 0 && tiling(v.Tiles) {
			b.names, b.vars = iterators(b.loops, nameBuf[:0], varBuf[:0])
		}
		tiled, caps, err := b.check(v, tileOnly)
		if err != nil {
			return nil, i, err
		}
		nLoops += tiled + len(b.loops)
		nNodes += len(p.Root) + tiled + len(b.loops)
		nCaps += caps
	}
	out := make([]*ir.Program, len(vs))
	heads := make([]ir.Program, len(vs))
	s := slabs{
		nodes: make([]ir.Node, nNodes),
		loops: make([]ir.Loop, nLoops),
		caps:  make([]ir.Affine, nCaps),
	}
	for i, v := range vs {
		b.build(&heads[i], v, tileOnly, &s)
		out[i] = &heads[i]
	}
	return out, 0, nil
}

// check validates v against the nest — the checks of the tile,
// parallelize and unroll steps in that order, each before anything is
// built — and counts the levels it tiles and the caps of their point
// loops.
func (b batch) check(v Version, tileOnly bool) (tiled, ncaps int, err error) {
	tiled, ncaps, err = b.checkTile(v.Tiles)
	if tileOnly || err != nil {
		if err != nil && !tileOnly {
			err = fmt.Errorf("transform: step 0: %w", err)
		}
		return tiled, ncaps, err
	}
	if err := b.checkParallelize(v.Tiles, tiled, v.Collapse); err != nil {
		return 0, 0, fmt.Errorf("transform: step 1: %w", err)
	}
	// An unroll of 0 writes no pragma. A nest with no loop to write one
	// on was refused by the parallelize check already.
	if v.Unroll < 0 {
		return 0, 0, fmt.Errorf("transform: step 2: transform: unroll pragma factor must be >= 1, got %d", v.Unroll)
	}
	return tiled, ncaps, nil
}

func (b batch) checkTile(tiles []int64) (tiled, ncaps int, err error) {
	if len(b.p.Root) == 0 {
		return 0, 0, fmt.Errorf("transform: empty program")
	}
	if len(tiles) == 0 {
		return 0, 0, nil
	}
	if len(tiles) > len(b.loops) {
		return 0, 0, fmt.Errorf("transform: %d tile sizes for a %d-deep nest", len(tiles), len(b.loops))
	}
	for _, t := range tiles {
		if t < 0 {
			return 0, 0, fmt.Errorf("transform: negative tile size %d", t)
		}
	}
	for idx, l := range b.loops[:len(tiles)] {
		if tiles[idx] <= 1 {
			continue
		}
		if l.Step != 1 {
			return 0, 0, fmt.Errorf("transform: cannot tile loop %s with step %d", l.Var, l.Step)
		}
		tiled++
		ncaps += len(l.Caps) + 1
	}
	return tiled, ncaps, nil
}

// checkParallelize checks a collapse against the nest the version
// builds — its tiled levels' tile loops, then a point loop or the
// input's loop per level — without building it.
func (b batch) checkParallelize(tiles []int64, tiled, collapse int) error {
	if collapse < 1 {
		return fmt.Errorf("transform: collapse must be >= 1, got %d", collapse)
	}
	depth := tiled + len(b.loops)
	if depth == 0 {
		return fmt.Errorf("transform: no loop to parallelize")
	}
	if collapse > depth {
		return fmt.Errorf("transform: collapse %d exceeds nest depth %d", collapse, depth)
	}
	for i := 1; i < collapse; i++ {
		r := b.rung(tiles, tiled, i)
		for k := 0; ; k++ {
			bound, ok := r.bound(k)
			if !ok {
				break
			}
			for j := 0; j < i; j++ {
				if o := b.rung(tiles, tiled, j).v; bound.Coeff(o) != 0 {
					return fmt.Errorf("transform: collapsed loop %s has non-rectangular bound on %s", r.v, o)
				}
			}
		}
	}
	return nil
}

// rung is loop j of the nest a version builds, as the checks read it:
// its iterator and its bounds — for a point loop, the caps of its
// level's loop and then that loop's upper bound.
type rung struct {
	v      string
	lo, hi ir.Affine
	caps   []ir.Affine
	last   *ir.Affine // a point loop's last cap
}

func (b batch) rung(tiles []int64, tiled, j int) rung {
	if j < tiled {
		for idx, t := range tiles { // the j-th tiled level's tile loop
			if t <= 1 {
				continue
			}
			if j == 0 {
				l := b.loops[idx]
				return rung{v: b.names[idx], lo: l.Lo, hi: l.Hi, caps: l.Caps}
			}
			j--
		}
	}
	idx := j - tiled
	l := b.loops[idx]
	if idx < len(tiles) && tiles[idx] > 1 {
		return rung{v: l.Var, lo: b.vars[idx], hi: b.vars[idx].AddConst(tiles[idx]), caps: l.Caps, last: &l.Hi}
	}
	return rung{v: l.Var, lo: l.Lo, hi: l.Hi, caps: l.Caps}
}

// bound returns the k-th bound of the loop in the order the collapse
// check reads them: Lo, Hi, then the caps.
func (r rung) bound(k int) (ir.Affine, bool) {
	switch {
	case k == 0:
		return r.lo, true
	case k == 1:
		return r.hi, true
	case k-2 < len(r.caps):
		return r.caps[k-2], true
	case k-2 == len(r.caps) && r.last != nil:
		return *r.last, true
	}
	return ir.Affine{}, false
}

// tiling reports whether the sizes tile a level: whether a version of
// them needs the tile iterators.
func tiling(sizes []int64) bool {
	for _, t := range sizes {
		if t > 1 {
			return true
		}
	}
	return false
}

// iterators builds the tile iterator of every loop of the nest into
// names and vars: the name — the loop's own with "_t" appended — cut
// from one string, and its one-term expression, from one term slab.
// Every version of a batch shares them; a point loop's Lo and Hi share
// the expression's term slice.
func iterators(loops []*ir.Loop, names []string, vars []ir.Affine) ([]string, []ir.Affine) {
	size := 0
	for _, l := range loops {
		size += len(l.Var) + len("_t")
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, l := range loops {
		sb.WriteString(l.Var)
		sb.WriteString("_t")
	}
	all := sb.String()
	for _, l := range loops {
		n := len(l.Var) + len("_t")
		names, all = append(names, all[:n]), all[n:]
	}
	return names, ir.AppendVars(vars, names)
}

// slabs are the batch-sized slabs a batch cuts its versions from.
type slabs struct {
	nodes []ir.Node
	loops []ir.Loop
	caps  []ir.Affine
}

// cut returns the next n elements of *slab, capped, and advances it.
func cut[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// build writes the version v into out, a version check accepted. The
// new nest is a chain: tile loops for every tiled level, then the
// nest's levels in order — a new point loop where the level is tiled,
// a copy of the input's loop where it is not — whose last loop keeps
// the input's innermost body. Each loop's one-node body is cut from
// the chain itself; bounds are shared with the input.
func (b batch) build(out *ir.Program, v Version, tileOnly bool, s *slabs) {
	p := b.p
	*out = ir.Program{Name: p.Name, Arrays: p.Arrays, Root: cut(&s.nodes, len(p.Root))}
	copy(out.Root, p.Root)
	depth := len(b.loops)
	if depth == 0 {
		return
	}
	tiled := 0
	for _, t := range v.Tiles {
		if t > 1 {
			tiled++
		}
	}
	loops := cut(&s.loops, tiled+depth)
	chain := cut(&s.nodes, tiled+depth)
	k := 0
	for idx, l := range b.loops {
		if idx >= len(v.Tiles) || v.Tiles[idx] <= 1 {
			loops[tiled+idx] = *l
			continue
		}
		t := v.Tiles[idx]
		pointCaps := cut(&s.caps, len(l.Caps)+1)
		copy(pointCaps, l.Caps)
		pointCaps[len(l.Caps)] = l.Hi
		loops[k] = ir.Loop{Var: b.names[idx], Lo: l.Lo, Hi: l.Hi, Caps: l.Caps, Step: t}
		loops[tiled+idx] = ir.Loop{
			Var:  l.Var,
			Lo:   b.vars[idx],
			Hi:   b.vars[idx].AddConst(t), // it + T, sharing the iterator's term
			Caps: pointCaps,
			Step: 1,
		}
		k++
	}
	for j := range loops {
		chain[j] = &loops[j]
	}
	for j := 0; j < len(loops)-1; j++ {
		loops[j].Body = chain[j+1 : j+2 : j+2]
	}
	inner := &loops[len(loops)-1]
	inner.Body = b.loops[depth-1].Body
	out.Root[0] = chain[0]
	if tileOnly {
		return
	}
	loops[0].Parallel = true
	loops[0].Collapse = v.Collapse
	switch {
	case v.Unroll == 1:
		inner.UnrollPragma = 0
	case v.Unroll > 1:
		inner.UnrollPragma = v.Unroll
	}
}
