package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := Median([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMustMedianPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	MustMedian(nil)
}

func TestMustMedianInPlace(t *testing.T) {
	if m := MustMedianInPlace([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := MustMedianInPlace([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	MustMedianInPlace(nil)
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m)
	}
}

func TestGeoMean(t *testing.T) {
	m, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m, 2) {
		t.Fatalf("geomean = %v, want 2", m)
	}
}

func TestGeoMeanRejectsNonPositive(t *testing.T) {
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Fatal("expected error for non-positive sample")
	}
}

func TestVarianceAndStddev(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(v, 32.0/7.0) {
		t.Fatalf("variance = %v, want %v", v, 32.0/7.0)
	}
	s, _ := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(s, math.Sqrt(32.0/7.0)) {
		t.Fatalf("stddev = %v", s)
	}
}

func TestVarianceSingleSample(t *testing.T) {
	v, err := Variance([]float64{42})
	if err != nil || v != 0 {
		t.Fatalf("variance = %v err=%v, want 0,nil", v, err)
	}
}

func TestMinMaxArgMin(t *testing.T) {
	xs := []float64{5, -1, 3}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	ai, _ := ArgMin(xs)
	if lo != -1 || hi != 5 || ai != 1 {
		t.Fatalf("min=%v max=%v argmin=%v", lo, hi, ai)
	}
}

func TestArgMinTiesLowestIndex(t *testing.T) {
	ai, _ := ArgMin([]float64{2, 1, 1})
	if ai != 1 {
		t.Fatalf("argmin = %d, want 1", ai)
	}
}

func TestNormalizeRange(t *testing.T) {
	out := Normalize([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i]) {
			t.Fatalf("normalize = %v, want %v", out, want)
		}
	}
}

func TestNormalizeConstant(t *testing.T) {
	out := Normalize([]float64{7, 7, 7})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("normalize constant = %v, want zeros", out)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp misbehaves")
	}
	if ClampInt(5, 0, 3) != 3 || ClampInt(-1, 0, 3) != 0 || ClampInt(2, 0, 3) != 2 {
		t.Fatal("ClampInt misbehaves")
	}
}

func TestRelLoss(t *testing.T) {
	if !almostEqual(RelLoss(1.11, 1.0), 0.11) {
		t.Fatalf("RelLoss = %v, want 0.11", RelLoss(1.11, 1.0))
	}
	if !math.IsNaN(RelLoss(1, 0)) {
		t.Fatal("RelLoss with ref=0 should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	p50, err := Percentile(xs, 50)
	if err != nil || p50 != 3 {
		t.Fatalf("p50 = %v err=%v", p50, err)
	}
	p0, _ := Percentile(xs, 0)
	p100, _ := Percentile(xs, 100)
	if p0 != 1 || p100 != 5 {
		t.Fatalf("p0=%v p100=%v", p0, p100)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("expected range error")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Property: the median lies between min and max.
func TestMedianBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := MustMedian(xs)
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize output is always within [0,1].
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e150 {
				xs = append(xs, x)
			}
		}
		for _, v := range Normalize(xs) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is translation-equivariant.
func TestMeanShiftProperty(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 || math.Abs(shift) > 1e6 || math.IsNaN(shift) {
			return true
		}
		m1, _ := Mean(xs)
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		m2, _ := Mean(shifted)
		return math.Abs(m2-(m1+shift)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
