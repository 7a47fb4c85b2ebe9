package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestMedianOdd(t *testing.T) {
	m, err := median([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestMedianEven(t *testing.T) {
	m, err := median([]float64{4, 1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := median(nil); err != errEmpty {
		t.Fatalf("err = %v, want errEmpty", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_, _ = median(xs)
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
		return m >= slices.Min(xs) && m <= slices.Max(xs)
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
