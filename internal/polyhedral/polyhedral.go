// Package polyhedral implements the dependence analysis the analyzer
// uses to prove transformation legality, mirroring the role of the
// polyhedral dependence tests in the Insieme compiler.
//
// The implementation covers the affine loop nests MiniIR can express:
// a GCD-based disproof test per array dimension, exact constant
// distance vectors for uniform dependences (equal iterator
// coefficients), and conservative direction vectors otherwise. On top
// of the dependence information it answers the three legality questions
// the auto-tuner asks:
//
//   - is a band of loops fully permutable (and therefore tilable)?
//   - is a loop parallelizable?
//   - may two adjacent loops be collapsed before parallelization?
package polyhedral

import (
	"fmt"
	"slices"
	"strings"

	"autotune/internal/ir"
)

// Kind classifies a dependence by the access types involved.
type Kind int

const (
	// flow is a read-after-write (true) dependence.
	flow Kind = iota
	// anti is a write-after-read dependence.
	anti
	// output is a write-after-write dependence.
	output
)

// String returns the dependence kind name.
func (k Kind) String() string {
	switch k {
	case flow:
		return "flow"
	case anti:
		return "anti"
	case output:
		return "output"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Direction is one component of a direction vector.
type Direction int

const (
	// dirZero means the dependence is not carried by the loop (=).
	dirZero Direction = iota
	// dirPos means the sink iteration follows the source (<, forward).
	dirPos
	// dirNeg means the sink iteration precedes the source (>, backward).
	dirNeg
	// dirNonNeg means the component is either = or < ({=,<}); it arises
	// from an unconstrained iterator after lexicographic legalization,
	// e.g. the reduction loop of an accumulation statement.
	dirNonNeg
	// dirAny means the direction is unknown (*).
	dirAny
)

// String renders the direction in classic <,=,>,≤,* notation.
func (d Direction) String() string {
	switch d {
	case dirZero:
		return "="
	case dirPos:
		return "<"
	case dirNeg:
		return ">"
	case dirNonNeg:
		return "<="
	default:
		return "*"
	}
}

// Dependence describes one data dependence between two accesses within
// a loop nest.
type Dependence struct {
	Kind  Kind
	Array string
	// Directions has one entry per loop of the nest, outermost first.
	Directions []Direction
	// Distance holds the constant dependence distance per loop when
	// Exact is true (uniform dependence); otherwise it is nil.
	Distance []int64
	Exact    bool
}

// String renders e.g. "flow A (=,=,<)".
func (d Dependence) String() string {
	parts := make([]string, len(d.Directions))
	for i, dir := range d.Directions {
		parts[i] = dir.String()
	}
	return fmt.Sprintf("%s %s (%s)", d.Kind, d.Array, strings.Join(parts, ","))
}

// CarriedBy reports whether the dependence is (or may be) carried by
// the loop at nest position level.
func (d Dependence) CarriedBy(level int) bool {
	if level >= len(d.Directions) {
		return false
	}
	dir := d.Directions[level]
	return dir == dirPos || dir == dirNeg || dir == dirNonNeg || dir == dirAny
}

// gcd returns the greatest common divisor of non-negative a, b.
func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gcdTestDimension applies the single-dimension GCD disproof: the
// equation Σ ai·xi - Σ bi·yi = cb - ca has an integer solution only if
// gcd of all coefficients divides the constant difference. It returns
// false when a dependence in this dimension is impossible.
func gcdTestDimension(a, b ir.Affine, loopVars []string) bool {
	g := int64(0)
	for _, v := range loopVars {
		g = gcd(g, a.Coeff(v))
		g = gcd(g, b.Coeff(v))
	}
	diff := b.Const - a.Const
	if g == 0 {
		// No iterator terms at all: dependence iff constants equal.
		return diff == 0
	}
	return diff%g == 0
}

// Analyze computes all dependences among the statements at the
// innermost level of the perfect nest formed by loops. The returned
// dependences include flow, anti and output dependences. Self output
// dependences on the same access (a statement writing the same cell it
// wrote, e.g. accumulation) are reported with the appropriate
// direction vector.
func Analyze(loops []*ir.Loop, stmts []*ir.Stmt) []Dependence {
	return dedup(pairDependences(loops, stmts))
}

// pairDependences returns the dependence of every pair of accesses
// that may touch one element, repeats included; Analyze keeps the
// first of each.
func pairDependences(loops []*ir.Loop, stmts []*ir.Stmt) []Dependence {
	loopVars := make([]string, len(loops))
	for i, l := range loops {
		loopVars[i] = l.Var
	}
	var deps []Dependence
	add := func(k Kind, src, dst ir.Access) {
		if src.Array != dst.Array {
			return
		}
		d, ok := pairDependence(k, src, dst, loopVars)
		if ok {
			deps = append(deps, d)
		}
	}
	for _, s1 := range stmts {
		for _, s2 := range stmts {
			for _, w := range s1.Writes {
				for _, r := range s2.Reads {
					add(flow, w, r)
				}
				for _, w2 := range s2.Writes {
					// Emit each unordered write pair once.
					if s1 == s2 || lessStmt(s1, s2) {
						add(output, w, w2)
					}
				}
			}
			for _, r := range s1.Reads {
				for _, w := range s2.Writes {
					add(anti, r, w)
				}
			}
		}
	}
	return deps
}

func lessStmt(a, b *ir.Stmt) bool { return a.Label < b.Label }

// pairDependence tests whether src and dst (same array) may touch the
// same element at different iterations and, if so, computes the
// distance/direction vector.
func pairDependence(k Kind, src, dst ir.Access, loopVars []string) (Dependence, bool) {
	if len(src.Indices) != len(dst.Indices) {
		return Dependence{}, false
	}
	// GCD disproof per dimension.
	for dim := range src.Indices {
		if !gcdTestDimension(src.Indices[dim], dst.Indices[dim], loopVars) {
			return Dependence{}, false
		}
	}
	dep := Dependence{
		Kind:       k,
		Array:      src.Array,
		Directions: make([]Direction, len(loopVars)),
		Distance:   make([]int64, len(loopVars)),
		Exact:      true,
	}
	// Determine, per loop, the constraint the accesses impose. A
	// uniform dependence has equal coefficients per iterator in both
	// accesses; its distance in a loop is fixed by dimensions where
	// that loop's coefficient is non-zero and all other iterator
	// coefficients pair up.
	for li, v := range loopVars {
		dist, exact, involved := loopDistance(src, dst, v, loopVars)
		if !involved {
			// The iterator is unconstrained: whether or not the
			// accesses mention it, source and sink may run at any pair
			// of its values (e.g. the reduction pattern
			// write(v)->read(v+1)), so the raw direction set is
			// {<,=,>}. Legalization below narrows it under
			// lexicographic positivity.
			dep.Directions[li] = dirAny
			dep.Exact = false
			continue
		}
		if !exact {
			dep.Directions[li] = dirAny
			dep.Exact = false
			continue
		}
		dep.Distance[li] = dist
		switch {
		case dist == 0:
			dep.Directions[li] = dirZero
		case dist > 0:
			dep.Directions[li] = dirPos
		default:
			dep.Directions[li] = dirNeg
		}
	}
	if !legalize(&dep) {
		return Dependence{}, false
	}
	if !dep.Exact {
		dep.Distance = nil
	}
	return dep, true
}

// legalize narrows the direction vector under the requirement that the
// sink must not precede the source in execution order (lexicographic
// non-negativity). Backward components are only possible after an
// earlier component that may be positive. A vector whose first
// non-equal component is definitely negative describes the mirrored
// dependence (reported separately with kinds swapped) and is pruned by
// returning false. Purely-zero vectors for flow/anti/output between
// distinct iterations degenerate to loop-independent dependences and
// are kept with all-= directions.
func legalize(d *Dependence) bool {
	prefixCanBePositive := false
	for i, dir := range d.Directions {
		switch dir {
		case dirPos:
			prefixCanBePositive = true
		case dirNeg:
			if !prefixCanBePositive {
				return false
			}
		case dirAny:
			if !prefixCanBePositive {
				// Negative impossible here: narrow {<,=,>} to {=,<}.
				d.Directions[i] = dirNonNeg
				prefixCanBePositive = true
			} else {
				prefixCanBePositive = true
			}
		}
	}
	return true
}

// loopDistance inspects every array dimension whose index uses loop
// iterator v and tries to derive a constant dependence distance for v:
// src index f and dst index g satisfy f(i_src) = g(i_dst). For uniform
// accesses (equal coefficients on every iterator) with coefficient c on
// v, any dimension using v alone fixes c·(v_dst - v_src) = constA -
// constB. Multiple dimensions must agree; non-uniform coefficients
// yield an unknown direction.
func loopDistance(src, dst ir.Access, v string, loopVars []string) (dist int64, exact, involved bool) {
	found := false
	var agreed int64
	for dim := range src.Indices {
		f, g := src.Indices[dim], dst.Indices[dim]
		cf, cg := f.Coeff(v), g.Coeff(v)
		if cf == 0 && cg == 0 {
			continue
		}
		involved = true
		if cf != cg || cf == 0 {
			return 0, false, true
		}
		// Other iterators must pair up for a uniform solution in which
		// their source/destination values coincide; otherwise the
		// distance in v is coupled to other loops and unknown.
		uniform := true
		for _, w := range loopVars {
			if w == v {
				continue
			}
			if f.Coeff(w) != g.Coeff(w) {
				uniform = false
				break
			}
		}
		if !uniform {
			return 0, false, true
		}
		diff := f.Const - g.Const // c·(v_dst - v_src) = f.Const - g.Const
		if diff%cf != 0 {
			// No integer distance in this dimension alone; treat as
			// unknown rather than absent (conservative).
			return 0, false, true
		}
		d := diff / cf
		if found && d != agreed {
			// Contradicting dimensions: the accesses can only meet if
			// both hold, which a uniform distance cannot satisfy;
			// conservatively unknown.
			return 0, false, true
		}
		found = true
		agreed = d
	}
	if !involved {
		return 0, true, false
	}
	return agreed, true, true
}

// dedup drops each dependence equal to one before it — the same kind,
// array and directions, and either both inexact or both exact with the
// same distance — keeping first-seen order. It compacts deps in place;
// a nest has a handful, so each is compared with the ones kept.
func dedup(deps []Dependence) []Dependence {
	out := deps[:0]
next:
	for _, d := range deps {
		for _, e := range out {
			if d.Kind == e.Kind && d.Array == e.Array && d.Exact == e.Exact &&
				slices.Equal(d.Directions, e.Directions) &&
				(!d.Exact || slices.Equal(d.Distance, e.Distance)) {
				continue next
			}
		}
		out = append(out, d)
	}
	return out
}

// fullyPermutable reports whether the loop band [from, to] (inclusive
// nest positions) is fully permutable — the standard legality condition
// for rectangular tiling: every dependence must have non-negative
// direction components throughout the band, with any unknown (*)
// component making the band illegal.
func fullyPermutable(deps []Dependence, from, to int) bool {
	for _, d := range deps {
		for l := from; l <= to && l < len(d.Directions); l++ {
			switch d.Directions[l] {
			case dirNeg, dirAny:
				return false
			}
		}
	}
	return true
}

// ParallelLoop reports whether the loop at nest position level can be
// run in parallel: no dependence may be carried by it. A dependence is
// carried at `level` if its component there may be non-zero while every
// outer component may be zero (outer components that are definitely
// non-zero mean the dependence is carried by an outer loop instead and
// does not inhibit parallelism here).
func ParallelLoop(deps []Dependence, level int) bool {
	for _, d := range deps {
		mayReachLevel := true
		for l := 0; l < level && l < len(d.Directions); l++ {
			if d.Directions[l] == dirPos || d.Directions[l] == dirNeg {
				mayReachLevel = false
				break
			}
		}
		if mayReachLevel && d.CarriedBy(level) {
			return false
		}
	}
	return true
}

// MaxTilableBand returns the largest prefix [0, k) of the nest that is
// fully permutable starting at the outermost loop, which is the band
// the analyzer tiles. Returns 0 when even the outermost loop
// participates in a negative or unknown direction.
func MaxTilableBand(deps []Dependence, nestDepth int) int {
	k := 0
	for k < nestDepth && fullyPermutable(deps, 0, k) {
		k++
	}
	return k
}

// CollapsibleLoops reports whether the two adjacent loops at positions
// level and level+1 may be collapsed into a single loop before
// parallelizing the result. Requirements: the inner loop's bounds must
// not depend on the outer iterator (rectangular), and both loops must
// be parallelizable (no dependence carried by either).
func CollapsibleLoops(loops []*ir.Loop, deps []Dependence, level int) bool {
	if level+1 >= len(loops) {
		return false
	}
	inner := loops[level+1]
	outerVar := loops[level].Var
	if inner.Lo.Coeff(outerVar) != 0 || inner.Hi.Coeff(outerVar) != 0 {
		return false
	}
	return ParallelLoop(deps, level) && ParallelLoop(deps, level+1)
}
