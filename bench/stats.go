package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of vals by the exclusive method —
// the one Python's statistics.quantiles defaults to, so a spread
// computed here matches the one the benchmark driver computes. The
// result is clamped to the sample range; an empty sample gives 0.
func quantile(vals []float64, p float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	d := h - float64(j)
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return s[j-1]*(1-d) + s[j]*d
}

func q1(vals []float64) float64     { return quantile(vals, 0.25) }
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// roundSpread is (median − q1) ÷ q1 of the round wall times: how far
// the typical round sat above the quiet ones, i.e. how disturbed the
// host was during the run.
func roundSpread(walls []float64) float64 {
	q := q1(walls)
	if q == 0 {
		return 0
	}
	return (median(walls) - q) / q
}

// ratio is a/b with 0 for an empty base, so an idle layer reports 0
// instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
