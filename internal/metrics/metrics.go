// Package metrics implements front-quality indicators from the
// multi-objective optimization literature beyond the hypervolume the
// paper reports: the additive epsilon indicator, the coverage
// (C-)metric, Schott's spacing, and inverted generational distance.
// They complement V(S) in the extended strategy comparison.
//
// All indicators assume minimized objective vectors.
package metrics

import (
	"errors"
	"math"

	"autotune/internal/pareto"
)

// errEmpty is returned when an indicator needs a non-empty front.
var errEmpty = errors.New("metrics: empty front")

// additiveEpsilon returns the smallest eps such that every point of
// reference is weakly dominated by some point of front after
// subtracting eps from each front objective — i.e. how far front must
// be shifted to cover reference. 0 means front covers reference.
func additiveEpsilon(front, reference [][]float64) (float64, error) {
	if len(front) == 0 || len(reference) == 0 {
		return 0, errEmpty
	}
	eps := math.Inf(-1)
	for _, r := range reference {
		best := math.Inf(1)
		for _, f := range front {
			if len(f) != len(r) {
				return 0, errors.New("metrics: dimension mismatch")
			}
			worst := math.Inf(-1)
			for c := range f {
				if d := f[c] - r[c]; d > worst {
					worst = d
				}
			}
			if worst < best {
				best = worst
			}
		}
		if best > eps {
			eps = best
		}
	}
	return eps, nil
}

// coverage returns the C-metric C(A, B): the fraction of points in B
// weakly dominated by at least one point in A. C(A,B)=1 means A covers
// B entirely; the metric is not symmetric.
func coverage(a, b [][]float64) (float64, error) {
	if len(b) == 0 {
		return 0, errEmpty
	}
	covered := 0
	for _, pb := range b {
		for _, pa := range a {
			if pareto.WeaklyDominates(pa, pb) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b)), nil
}

// spacing returns Schott's spacing metric: the standard deviation of
// nearest-neighbour Manhattan distances within the front. 0 means
// perfectly even spacing; a single-point front has spacing 0.
func spacing(front [][]float64) (float64, error) {
	n := len(front)
	if n == 0 {
		return 0, errEmpty
	}
	if n == 1 {
		return 0, nil
	}
	d := make([]float64, n)
	for i := range front {
		best := math.Inf(1)
		for j := range front {
			if i == j {
				continue
			}
			dist := 0.0
			for c := range front[i] {
				dist += math.Abs(front[i][c] - front[j][c])
			}
			if dist < best {
				best = dist
			}
		}
		d[i] = best
	}
	mean := 0.0
	for _, x := range d {
		mean += x
	}
	mean /= float64(n)
	varsum := 0.0
	for _, x := range d {
		varsum += (x - mean) * (x - mean)
	}
	return math.Sqrt(varsum / float64(n-1)), nil
}

// invertedGenerationalDistance returns the average Euclidean distance
// from each reference point to its nearest front point: how well the
// front covers the reference set.
func invertedGenerationalDistance(front, reference [][]float64) (float64, error) {
	return meanNearest(reference, front)
}

// meanNearest returns the average Euclidean distance from each point of
// from to its nearest point of to.
func meanNearest(from, to [][]float64) (float64, error) {
	if len(from) == 0 || len(to) == 0 {
		return 0, errEmpty
	}
	sum := 0.0
	for _, f := range from {
		best := math.Inf(1)
		for _, t := range to {
			if len(t) != len(f) {
				return 0, errors.New("metrics: dimension mismatch")
			}
			d := 0.0
			for c := range f {
				diff := f[c] - t[c]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(len(from)), nil
}

// Summary bundles the indicators of one front against a reference.
type Summary struct {
	Epsilon float64
	Covers  float64 // C(front, reference)
	Spacing float64
	IGD     float64
}

// Summarize computes every indicator for front vs reference; an empty
// front or reference, or points of another dimension, is an error.
func Summarize(front, reference [][]float64) (Summary, error) {
	var s Summary
	var err error
	if s.Epsilon, err = additiveEpsilon(front, reference); err != nil {
		return Summary{}, err
	}
	// additiveEpsilon refuses everything the others would.
	s.Covers, _ = coverage(front, reference)
	s.Spacing, _ = spacing(front)
	s.IGD, _ = invertedGenerationalDistance(front, reference)
	return s, nil
}
