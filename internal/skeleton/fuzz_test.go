package skeleton

import (
	"math"
	"testing"
)

// fuzzSpace builds a small space whose bounds are derived from fuzz
// input, normalized so Min <= Max and spans stay positive.
func fuzzSpace(b1, b2, b3, b4 int64) Space {
	norm := func(lo, hi int64) (int64, int64) {
		lo, hi = lo%1000, hi%1000
		if lo < 0 {
			lo = -lo
		}
		if hi < 0 {
			hi = -hi
		}
		lo++
		hi++
		if hi < lo {
			lo, hi = hi, lo
		}
		return lo, hi
	}
	l1, h1 := norm(b1, b2)
	l2, h2 := norm(b3, b4)
	return Space{Params: []Param{
		{Name: "t", Kind: TileSize, Min: l1, Max: h1},
		{Name: "p", Kind: ThreadCount, Min: l2, Max: h2},
	}}
}

// FuzzConfigClamp asserts the two clamping paths the optimizer relies
// on always land inside the space: Space.Clip for full-length integer
// configurations and Box.AppendClosestTo for arbitrary real vectors
// (including NaN and infinities, which differential-evolution
// arithmetic can produce).
func FuzzConfigClamp(f *testing.F) {
	f.Add(int64(1), int64(64), int64(1), int64(16), int64(7), int64(-3), 2.5, -1e18)
	f.Add(int64(-5), int64(5), int64(100), int64(2), int64(0), int64(1<<40), math.Inf(1), math.NaN())
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(math.MinInt64), int64(math.MaxInt64), -0.0, 1e308)
	f.Fuzz(func(t *testing.T, b1, b2, b3, b4, v1, v2 int64, r1, r2 float64) {
		space := fuzzSpace(b1, b2, b3, b4)
		if err := space.Validate(); err != nil {
			t.Fatalf("fuzzSpace built an invalid space: %v", err)
		}

		clipped := space.Clip(Config{v1, v2})
		if !space.In(clipped) {
			t.Fatalf("Clip(%v) = %v escapes space %+v", Config{v1, v2}, clipped, space.Params)
		}

		box := space.FullBox()
		closest := box.AppendClosestTo(nil, []float64{r1, r2})
		if !inBox(box, closest) || !space.In(closest) {
			t.Fatalf("AppendClosestTo([%g %g]) = %v escapes box [%v, %v]", r1, r2, closest, box.Lo, box.Hi)
		}

		// A narrowed box must also contain its clamp results.
		sub := Box{
			Lo: []int64{(box.Lo[0] + box.Hi[0]) / 2, box.Lo[1]},
			Hi: []int64{box.Hi[0], (box.Lo[1] + box.Hi[1]) / 2},
		}
		closest = sub.AppendClosestTo(nil, []float64{r1, r2})
		if !inBox(sub, closest) {
			t.Fatalf("AppendClosestTo([%g %g]) = %v escapes narrowed box [%v, %v]", r1, r2, closest, sub.Lo, sub.Hi)
		}
	})
}
