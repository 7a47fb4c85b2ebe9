// Package stats provides small statistical helpers shared across the
// auto-tuning framework: medians, means, and convenience constructors
// for deterministic random number generators.
//
// Every stochastic component of the framework (the differential
// evolution optimizer, the random-search baseline, noise injection in
// the simulated evaluator) takes an explicit seed or *rand.Rand so that
// experiments are reproducible run to run.
package stats

import (
	"errors"
	"math/rand"
	"slices"
)

// errEmpty is returned by aggregations that require at least one sample.
var errEmpty = errors.New("stats: empty sample set")

// NewRand returns a deterministic PRNG for the given seed. It exists so
// call sites read uniformly and so the source choice is centralized.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// median returns the median of xs. It copies the input, leaving the
// caller's slice untouched.
func median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	return MustMedianInPlace(append([]float64(nil), xs...)), nil
}

// MustMedianInPlace is MustMedian for a scratch slice the caller no
// longer needs in order: it sorts xs itself rather than a copy, so it
// allocates nothing (the per-evaluation median of the simulated
// evaluator). It panics on an empty slice.
func MustMedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		panic(errEmpty)
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// MustMedian is median for callers that have already checked len>0.
// It panics on an empty slice.
func MustMedian(xs []float64) float64 {
	m, err := median(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}
