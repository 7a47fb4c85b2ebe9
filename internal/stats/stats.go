// Package stats provides small statistical helpers shared across the
// auto-tuning framework: medians, means, normalization, and convenience
// constructors for deterministic random number generators.
//
// Every stochastic component of the framework (the differential
// evolution optimizer, the random-search baseline, noise injection in
// the simulated evaluator) takes an explicit seed or *rand.Rand so that
// experiments are reproducible run to run.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// NewRand returns a deterministic PRNG for the given seed. It exists so
// call sites read uniformly and so the source choice is centralized.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Median returns the median of xs. It copies the input, leaving the
// caller's slice untouched.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return MustMedianInPlace(append([]float64(nil), xs...)), nil
}

// MustMedianInPlace is MustMedian for a scratch slice the caller no
// longer needs in order: it sorts xs itself rather than a copy, so it
// allocates nothing (the per-evaluation median of the simulated
// evaluator). It panics on an empty slice.
func MustMedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// MustMedian is Median for callers that have already checked len>0.
// It panics on an empty slice.
func MustMedian(xs []float64) float64 {
	m, err := Median(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of xs. All samples must be
// positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean requires positive samples")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// Variance returns the unbiased sample variance of xs (n-1 in the
// denominator). A single sample has variance 0.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1), nil
}

// Stddev returns the sample standard deviation of xs.
func Stddev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// ArgMin returns the index of the smallest value in xs, breaking ties
// toward the lowest index.
func ArgMin(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best, nil
}

// Normalize maps xs affinely onto [0,1] using the slice's own min and
// max. If all values are equal the result is all zeros. The input is
// not modified.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	span := hi - lo
	if span == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / span
	}
	return out
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampInt limits x to the closed interval [lo, hi].
func ClampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RelLoss returns the relative loss of x versus a reference best value,
// expressed as a fraction (0.11 == 11% slower). It is the quantity the
// paper's Table II and Table V report. ref must be positive.
func RelLoss(x, ref float64) float64 {
	if ref <= 0 {
		return math.NaN()
	}
	return x/ref - 1
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 1 {
		return c[0], nil
	}
	rank := p / 100 * float64(len(c)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return c[lo], nil
	}
	frac := rank - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac, nil
}
