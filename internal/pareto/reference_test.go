package pareto

import (
	"math"
	"testing"
)

// refArchive is the archive as it was before Add was split into Admits
// and eviction: one pass that returns early on the first archived point
// weakly dominating p. It keeps a NaN vector, so the differential test
// never offers it one.
type refArchive struct {
	points []Point
}

func (a *refArchive) add(p Point) bool {
	kept := a.points[:0]
	for _, q := range a.points {
		if WeaklyDominates(q.Objectives, p.Objectives) {
			// Safe early exit: if any earlier point had been dominated
			// by p (and dropped), then by transitivity q would
			// dominate it too — impossible in a mutually non-dominated
			// archive. Hence no element has moved and the backing
			// array still holds the original contents.
			return false
		}
		if !Dominates(p.Objectives, q.Objectives) {
			kept = append(kept, q)
		}
	}
	a.points = append(kept, p)
	return true
}

// fuzzVectors cuts data into objective vectors of dim components. Each
// byte is one component from a range of six values, so exact duplicates
// and ties in one component are common; a byte from 250 up is NaN.
func fuzzVectors(data []byte, dim int) [][]float64 {
	var out [][]float64
	for len(data) >= dim {
		v := make([]float64, dim)
		for i, b := range data[:dim] {
			if b >= 250 {
				v[i] = math.NaN()
			} else {
				v[i] = float64(b % 6)
			}
		}
		out = append(out, v)
		data = data[dim:]
	}
	return out
}

func hasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// samePoints reports whether two archives hold the same points in the
// same order; a point's payload is its insertion index.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Payload != b[i].Payload || !equalVec(a[i].Objectives, b[i].Objectives) {
			return false
		}
	}
	return true
}

// FuzzArchiveAdmitsMatchesAdd holds Admits and the Add built on it to
// the single-pass Add they replaced: before every insertion Admits
// answers what the reference Add returns, and after it both archives
// hold the same points in the same order. A NaN vector is left out of
// the comparison; it must never be admitted nor kept.
func FuzzArchiveAdmitsMatchesAdd(f *testing.F) {
	f.Add([]byte{3, 3, 1, 5, 4, 4, 3, 3, 2, 2}, false)
	f.Add([]byte{1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0}, false)
	f.Add([]byte{2, 0, 2, 1, 1, 2, 0, 2, 2, 0}, false)
	f.Add([]byte{2, 2, 2, 1, 2, 3, 2, 1, 3, 1, 1, 1, 0, 5, 5}, true)
	f.Add([]byte{4, 4, 255, 0, 3, 3, 0, 255, 1, 1}, false)
	f.Add([]byte{0, 5, 255, 5, 0, 251, 1, 1, 1}, true)
	f.Fuzz(func(t *testing.T, data []byte, three bool) {
		dim := 2
		if three {
			dim = 3
		}
		a, ref := NewArchive(), &refArchive{}
		for i, o := range fuzzVectors(data, dim) {
			p := Point{Payload: i, Objectives: o}
			if hasNaN(o) {
				if a.Admits(o) || a.Add(p) {
					t.Fatalf("vector %d %v with a NaN component was admitted", i, o)
				}
			} else {
				admits := a.Admits(o)
				if want := ref.add(p); admits != want {
					t.Fatalf("Admits(%v) = %v before insertion %d, reference Add returned %v", o, admits, i, want)
				}
				if kept := a.Add(p); kept != admits {
					t.Fatalf("Add(%v) = %v, Admits said %v", o, kept, admits)
				}
			}
			if !samePoints(a.points, ref.points) {
				t.Fatalf("after insertion %d the archive holds %v, reference %v", i, a.points, ref.points)
			}
		}
	})
}
