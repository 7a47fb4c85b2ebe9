package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAdditiveEpsilonIdentity(t *testing.T) {
	f := [][]float64{{1, 2}, {2, 1}}
	eps, err := additiveEpsilon(f, f)
	if err != nil || !approx(eps, 0) {
		t.Fatalf("eps = %v, %v", eps, err)
	}
}

func TestAdditiveEpsilonShift(t *testing.T) {
	front := [][]float64{{2, 2}}
	ref := [][]float64{{1, 1}}
	eps, err := additiveEpsilon(front, ref)
	if err != nil || !approx(eps, 1) {
		t.Fatalf("eps = %v, want 1", eps)
	}
	// A dominating front has negative epsilon.
	eps, _ = additiveEpsilon(ref, front)
	if !approx(eps, -1) {
		t.Fatalf("eps = %v, want -1", eps)
	}
}

func TestAdditiveEpsilonErrors(t *testing.T) {
	if _, err := additiveEpsilon(nil, [][]float64{{1}}); err != errEmpty {
		t.Fatal("empty front accepted")
	}
	if _, err := additiveEpsilon([][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCoverage(t *testing.T) {
	a := [][]float64{{1, 1}}
	b := [][]float64{{2, 2}, {0.5, 3}}
	c, err := coverage(a, b)
	if err != nil || !approx(c, 0.5) {
		t.Fatalf("C(a,b) = %v, want 0.5", c)
	}
	c, _ = coverage(b, a)
	if !approx(c, 0) {
		t.Fatalf("C(b,a) = %v, want 0", c)
	}
	if _, err := coverage(a, nil); err != errEmpty {
		t.Fatal("empty b accepted")
	}
}

func TestSpacing(t *testing.T) {
	// Perfectly even staircase: spacing 0.
	even := [][]float64{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	s, err := spacing(even)
	if err != nil || !approx(s, 0) {
		t.Fatalf("spacing = %v, want 0", s)
	}
	uneven := [][]float64{{0, 10}, {1, 9}, {10, 0}}
	s2, _ := spacing(uneven)
	if s2 <= 0 {
		t.Fatalf("uneven spacing = %v, want > 0", s2)
	}
	one, _ := spacing([][]float64{{1, 1}})
	if one != 0 {
		t.Fatal("single point spacing should be 0")
	}
	if _, err := spacing(nil); err != errEmpty {
		t.Fatal("empty front accepted")
	}
}

// TestGDAndIGD: the generational distance of front to ref is the
// inverted one of ref to front.
func TestGDAndIGD(t *testing.T) {
	front := [][]float64{{1, 0}, {0, 1}}
	ref := [][]float64{{0, 0}}
	gd, err := invertedGenerationalDistance(ref, front)
	if err != nil || !approx(gd, 1) {
		t.Fatalf("GD = %v, want 1", gd)
	}
	igd, err := invertedGenerationalDistance(front, ref)
	if err != nil || !approx(igd, 1) {
		t.Fatalf("IGD = %v, want 1", igd)
	}
	same, _ := invertedGenerationalDistance(front, front)
	if !approx(same, 0) {
		t.Fatalf("IGD to itself = %v", same)
	}
	if _, err := invertedGenerationalDistance([][]float64{{1}}, front); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSummarize(t *testing.T) {
	front := [][]float64{{0.2, 0.8}, {0.8, 0.2}}
	ref := [][]float64{{0.1, 0.9}, {0.9, 0.1}, {0.4, 0.4}}
	s, err := Summarize(front, ref)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epsilon <= 0 {
		t.Fatalf("epsilon = %v, want > 0 (ref not covered)", s.Epsilon)
	}
	if s.Covers != 0 || s.IGD <= 0 {
		t.Fatalf("summary = %+v, want C 0 and IGD > 0", s)
	}
	if _, err := Summarize(nil, ref); err != errEmpty {
		t.Fatalf("empty front: %v, want %v", err, errEmpty)
	}
	if _, err := Summarize(front, [][]float64{{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// Property: epsilon(A, B) <= 0 whenever A weakly covers B point-wise,
// and Coverage is always within [0,1].
func TestIndicatorRangesProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var a, b [][]float64
		for i := 0; i+1 < len(raw); i += 2 {
			p := []float64{float64(raw[i] % 100), float64(raw[i+1] % 100)}
			if len(a) <= len(b) {
				a = append(a, p)
			} else {
				b = append(b, p)
			}
		}
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		c1, err1 := coverage(a, b)
		c2, err2 := coverage(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if c1 < 0 || c1 > 1 || c2 < 0 || c2 > 1 {
			return false
		}
		// Self-coverage is always 1 (every point weakly dominates
		// itself).
		self, _ := coverage(a, a)
		return self == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: GD(front, ref), i.e. IGD(ref, front), is zero when every
// front point is in ref.
func TestGDNonNegativeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var pts [][]float64
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, []float64{float64(raw[i]), float64(raw[i+1])})
		}
		if len(pts) < 2 {
			return true
		}
		gd, err := invertedGenerationalDistance(pts, pts[:1])
		if err != nil {
			return false
		}
		return gd == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
