// Package transform implements the loop transformations the
// auto-tuner's transformation skeletons are built from: rectangular
// tiling of a permutable band, loop collapsing before parallelization,
// parallelization of the outermost loop, and unroll pragmas.
//
// Transformations operate on MiniIR (internal/ir) and return new
// programs, leaving their input untouched: Tile clones its input and
// rewrites the clone, and Sequence clones once for a whole list of
// steps. Legality is *not* re-checked
// here — the analyzer (internal/analyzer) combines the polyhedral
// legality tests with these mechanical rewrites; transform only
// validates structural applicability (nest depth, rectangularity where
// required).
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
	return TileStep(tiles)(p.Clone())
}

// The unexported rewrites below transform the program they are given.
// Each validates everything before it writes anything, so a rewrite
// that fails has not touched its program.

func tile(out *ir.Program, tiles []int64) error {
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	loops, _ := ir.PerfectNest(out.Root[0])
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

	// Build the new nest: tile loops for every tiled level, then the
	// remaining structure with point loops substituted in place.
	var tileLoops []*ir.Loop
	pointLoops := make([]*ir.Loop, len(band))
	for idx, l := range band {
		t := tiles[idx]
		if t <= 1 {
			// Untiled level: keep the loop as-is in point position.
			pointLoops[idx] = l
			continue
		}
		if l.Step != 1 {
			return fmt.Errorf("transform: cannot tile loop %s with step %d", l.Var, l.Step)
		}
		tv := l.Var + "_t"
		caps := make([]ir.Affine, len(l.Caps))
		for ci, c := range l.Caps {
			caps[ci] = c.Copy()
		}
		tileLoops = append(tileLoops, &ir.Loop{
			Var:  tv,
			Lo:   l.Lo.Copy(),
			Hi:   l.Hi.Copy(),
			Caps: caps,
			Step: t,
		})
		pointCaps := make([]ir.Affine, 0, len(l.Caps)+1)
		for _, c := range l.Caps {
			pointCaps = append(pointCaps, c.Copy())
		}
		pointCaps = append(pointCaps, l.Hi.Copy())
		pointLoops[idx] = &ir.Loop{
			Var:  l.Var,
			Lo:   ir.Var(tv),
			Hi:   ir.Var(tv).AddConst(t),
			Caps: pointCaps,
			Step: 1,
		}
	}

	// Stitch: tile loops outermost, then point loops in original
	// order, then the body below the band.
	innerBody := band[len(band)-1].Body
	chain := append(append([]*ir.Loop{}, tileLoops...), pointLoops...)
	for i := 0; i < len(chain)-1; i++ {
		chain[i].Body = []ir.Node{chain[i+1]}
	}
	chain[len(chain)-1].Body = innerBody
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
	loops, _ := ir.PerfectNest(out.Root[0])
	if len(loops) == 0 {
		return fmt.Errorf("transform: no loop to parallelize")
	}
	if collapse > len(loops) {
		return fmt.Errorf("transform: collapse %d exceeds nest depth %d", collapse, len(loops))
	}
	for i := 1; i < collapse; i++ {
		for _, b := range append([]ir.Affine{loops[i].Lo, loops[i].Hi}, loops[i].Caps...) {
			for j := 0; j < i; j++ {
				if b.Coeff(loops[j].Var) != 0 {
					return fmt.Errorf("transform: collapsed loop %s has non-rectangular bound on %s",
						loops[i].Var, loops[j].Var)
				}
			}
		}
	}
	loops[0].Parallel = true
	loops[0].Collapse = collapse
	return nil
}

func annotateUnroll(out *ir.Program, factor int64) error {
	if factor < 1 {
		return fmt.Errorf("transform: unroll pragma factor must be >= 1, got %d", factor)
	}
	if len(out.Root) == 0 {
		return fmt.Errorf("transform: empty program")
	}
	loops, _ := ir.PerfectNest(out.Root[0])
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

// Step is one transformation in a Sequence. A Step may rewrite the
// program it is handed in place and return that same program, or build
// and return a new one; either way a Step that returns an error has not
// changed its argument. Steps are applied through Sequence, which hands
// them a clone it owns — calling a Step directly on a program that must
// survive is a bug.
type Step func(*ir.Program) (*ir.Program, error)

// inPlace wraps an in-place rewrite as a Step.
func inPlace(rewrite func(*ir.Program) error) Step {
	return func(p *ir.Program) (*ir.Program, error) {
		if err := rewrite(p); err != nil {
			return nil, err
		}
		return p, nil
	}
}

// TileStep returns a Step applying Tile with the given sizes.
func TileStep(tiles []int64) Step {
	return inPlace(func(p *ir.Program) error { return tile(p, tiles) })
}

// ParallelizeStep returns a Step marking the outermost loop of the
// program as parallel, collapsing the given number of perfectly nested
// loops into the parallel distribution (collapse=1 parallelizes just
// the outermost loop). The collapsed loops must be rectangular: bounds
// of an inner collapsed loop must not depend on outer collapsed
// iterators.
func ParallelizeStep(collapse int) Step {
	return inPlace(func(p *ir.Program) error { return parallelize(p, collapse) })
}

// AnnotateUnrollStep returns a Step marking the innermost loop of the
// outermost perfect nest with an unroll pragma of the given factor. It
// is legal for any bounds (the backend compiler handles remainders);
// factor 1 clears the annotation.
func AnnotateUnrollStep(factor int64) Step {
	return inPlace(func(p *ir.Program) error { return annotateUnroll(p, factor) })
}

// Sequence applies steps left to right to one clone of p and returns
// it: the steps built by this package rewrite that clone in place, so a
// sequence copies the program once, not once per step. p itself is
// never modified, and an error — Sequence stops at the first — returns
// no program at all, so a half-transformed one is never visible.
func Sequence(p *ir.Program, steps ...Step) (*ir.Program, error) {
	cur := p.Clone()
	for i, s := range steps {
		next, err := s(cur)
		if err != nil {
			return nil, fmt.Errorf("transform: step %d: %w", i, err)
		}
		cur = next
	}
	return cur, nil
}
