// Package pareto provides the multi-objective primitives of the
// framework: dominance tests, Pareto-front extraction, an incremental
// non-dominated archive, and the hypervolume quality metric V(S) used
// in the paper's Table VI.
//
// All objective vectors are minimized component-wise. Callers that
// maximize an objective (e.g. efficiency) convert it to a cost before
// entering this package.
package pareto

import (
	"errors"
	"math"
	"sort"
)

// Dominates reports whether objective vector a dominates b: a is no
// worse in every component and strictly better in at least one. Both
// vectors must have the same length; mismatched lengths never dominate.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// WeaklyDominates reports whether a is no worse than b in every
// component (equality allowed everywhere).
func WeaklyDominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Point couples an arbitrary payload (typically a configuration) with
// its objective vector.
type Point struct {
	Payload    interface{}
	Objectives []float64
}

// NonDominated returns the subset of points not dominated by any other
// point. Duplicate objective vectors are collapsed to a single
// representative (the first occurrence).
func NonDominated(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if Dominates(q.Objectives, p.Objectives) {
				dominated = true
				break
			}
			// Duplicate vectors: keep only the first.
			if j < i && equalVec(q.Objectives, p.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Archive maintains a set of mutually non-dominated points
// incrementally.
type Archive struct {
	points []Point
}

// NewArchive returns an empty archive.
func NewArchive() *Archive { return &Archive{} }

// Points returns a copy of the archived points.
func (a *Archive) Points() []Point {
	return append([]Point(nil), a.points...)
}

// Admits reports whether Add would keep a point with objective vector
// objs: no archived point weakly dominates it, and it has no NaN
// component. A NaN compares false both ways, so an archived NaN vector
// would weakly dominate every later point no worse in its other
// components: a vector with a NaN component never enters the archive.
// Deciding admission on the vector alone lets a caller build the Point,
// and box its payload, only for a point the archive keeps.
func (a *Archive) Admits(objs []float64) bool {
	for _, x := range objs {
		if math.IsNaN(x) {
			return false
		}
	}
	for _, q := range a.points {
		if WeaklyDominates(q.Objectives, objs) {
			return false
		}
	}
	return true
}

// Add inserts p when Admits(p.Objectives) holds, so never when an
// archived point weakly dominates it nor when it has a NaN component,
// and evicts every archived point p dominates. It reports whether p was
// kept.
func (a *Archive) Add(p Point) bool {
	if !a.Admits(p.Objectives) {
		return false
	}
	kept := a.points[:0]
	for _, q := range a.points {
		if !Dominates(p.Objectives, q.Objectives) {
			kept = append(kept, q)
		}
	}
	a.points = append(kept, p)
	return true
}

// errBadReference is returned by Hypervolume when the reference point
// does not match the objective dimensionality.
var errBadReference = errors.New("pareto: reference point dimension mismatch")

// Hypervolume computes the volume of the objective-space region
// dominated by the given points and bounded by the reference point
// (minimization: every counted point must be component-wise <= ref).
// Points outside the reference box (or with NaN components) are
// SILENTLY DROPPED, not clamped: a front scored against a reference
// that does not cover it loses volume it legitimately dominates.
// Comparing several fronts therefore requires one shared reference
// covering all of them — see SharedReference. Exact for any dimension
// via recursive slicing; intended for the small fronts an auto-tuner
// produces.
func Hypervolume(objs [][]float64, ref []float64) (float64, error) {
	if len(ref) == 0 {
		return 0, errBadReference
	}
	var pts [][]float64
	for _, o := range objs {
		if len(o) != len(ref) {
			return 0, errBadReference
		}
		inside := true
		for i := range o {
			if o[i] > ref[i] || math.IsNaN(o[i]) {
				inside = false
				break
			}
		}
		if inside {
			pts = append(pts, o)
		}
	}
	pts = nonDominatedVecs(pts)
	return hvRec(pts, ref), nil
}

func nonDominatedVecs(objs [][]float64) [][]float64 {
	var out [][]float64
	for i, p := range objs {
		dominated := false
		for j, q := range objs {
			if i == j {
				continue
			}
			if Dominates(q, p) || (j < i && equalVec(q, p)) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// hvRec computes hypervolume by slicing along the first objective.
// Points must be non-dominated and within ref.
func hvRec(pts [][]float64, ref []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	d := len(ref)
	if d == 1 {
		best := pts[0][0]
		for _, p := range pts[1:] {
			if p[0] < best {
				best = p[0]
			}
		}
		return ref[0] - best
	}
	if d == 2 {
		// Vertical slab decomposition: points sorted by the first
		// objective ascending have strictly descending second
		// objective on a non-dominated front, so within the slab
		// [x_i, x_{i+1}) the dominated height is ref_y - y_i.
		sorted := append([][]float64(nil), pts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
		vol := 0.0
		for i, p := range sorted {
			nextX := ref[0]
			if i+1 < len(sorted) {
				nextX = sorted[i+1][0]
			}
			vol += (nextX - p[0]) * (ref[1] - p[1])
		}
		return vol
	}
	// General case: sweep the first objective; for each slab, the
	// dominated (d-1)-volume is that of the points already passed.
	sorted := append([][]float64(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	vol := 0.0
	for i := range sorted {
		x0 := sorted[i][0]
		x1 := ref[0]
		if i+1 < len(sorted) {
			x1 = sorted[i+1][0]
		}
		if x1 <= x0 {
			continue
		}
		var proj [][]float64
		for _, q := range sorted[:i+1] {
			proj = append(proj, q[1:])
		}
		proj = nonDominatedVecs(proj)
		vol += (x1 - x0) * hvRec(proj, ref[1:])
	}
	return vol
}

// NormalizedHypervolume computes V(S) in [0,1] as the paper uses it:
// objectives are affinely mapped so that the ideal point becomes the
// origin and the nadir point becomes (1,...,1); the hypervolume is then
// measured against the (1,...,1) reference and divided by the unit
// volume. Points outside the [ideal, nadir] box are clamped into it.
func NormalizedHypervolume(objs [][]float64, ideal, nadir []float64) (float64, error) {
	if len(ideal) != len(nadir) || len(ideal) == 0 {
		return 0, errBadReference
	}
	ref := make([]float64, len(ideal))
	for i := range ref {
		ref[i] = 1
		if nadir[i] <= ideal[i] {
			return 0, errors.New("pareto: nadir must exceed ideal in every objective")
		}
	}
	var norm [][]float64
	for _, o := range objs {
		if len(o) != len(ideal) {
			return 0, errBadReference
		}
		v := make([]float64, len(o))
		for i := range o {
			x := (o[i] - ideal[i]) / (nadir[i] - ideal[i])
			if x < 0 {
				x = 0
			}
			if x > 1 {
				x = 1
			}
			v[i] = x
		}
		norm = append(norm, v)
	}
	return Hypervolume(norm, ref)
}

// SharedReference derives one reference point covering every point of
// every given front, for hypervolume comparisons across fronts.
// Hypervolume silently drops points outside its reference box, so
// scoring competing strategies against per-strategy references
// compares garbage; a shared reference keeps every front fully inside
// the box and the comparison meaningful. The reference is the pooled
// nadir padded by 5% of the pooled objective range per dimension (so
// boundary points contribute nonzero volume); a degenerate dimension
// (zero range across all fronts) is padded by 1. Returns an error when
// the fronts hold no points or mix objective dimensionalities.
func SharedReference(fronts ...[]Point) ([]float64, error) {
	var pool [][]float64
	for _, f := range fronts {
		for _, p := range f {
			pool = append(pool, p.Objectives)
		}
	}
	if len(pool) == 0 {
		return nil, errors.New("pareto: shared reference needs at least one point")
	}
	ideal, nadir, err := IdealNadir(pool)
	if err != nil {
		return nil, err
	}
	ref := make([]float64, len(nadir))
	for i := range ref {
		pad := 0.05 * (nadir[i] - ideal[i])
		if pad == 0 {
			pad = 1
		}
		ref[i] = nadir[i] + pad
	}
	return ref, nil
}

// IdealNadir returns the component-wise minimum (ideal) and maximum
// (nadir) of the given objective vectors.
func IdealNadir(objs [][]float64) (ideal, nadir []float64, err error) {
	if len(objs) == 0 {
		return nil, nil, errors.New("pareto: no objective vectors")
	}
	d := len(objs[0])
	ideal = append([]float64(nil), objs[0]...)
	nadir = append([]float64(nil), objs[0]...)
	for _, o := range objs[1:] {
		if len(o) != d {
			return nil, nil, errBadReference
		}
		for i := range o {
			if o[i] < ideal[i] {
				ideal[i] = o[i]
			}
			if o[i] > nadir[i] {
				nadir[i] = o[i]
			}
		}
	}
	return ideal, nadir, nil
}
