package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{1}, []float64{1, 2}, false},
		{nil, nil, false},
	}
	for _, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestWeaklyDominates(t *testing.T) {
	if !WeaklyDominates([]float64{1, 1}, []float64{1, 1}) {
		t.Error("equal vectors should weakly dominate")
	}
	if WeaklyDominates([]float64{1, 2}, []float64{2, 1}) {
		t.Error("incomparable vectors should not weakly dominate")
	}
	if WeaklyDominates([]float64{1}, []float64{1, 1}) {
		t.Error("mismatched lengths should not weakly dominate")
	}
}

func pts(vs ...[]float64) []Point {
	out := make([]Point, len(vs))
	for i, v := range vs {
		out[i] = Point{Payload: i, Objectives: v}
	}
	return out
}

func TestNonDominated(t *testing.T) {
	front := NonDominated(pts(
		[]float64{1, 5},
		[]float64{2, 2},
		[]float64{5, 1},
		[]float64{3, 3}, // dominated by (2,2)
		[]float64{2, 2}, // duplicate
	))
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
}

func TestNonDominatedEmpty(t *testing.T) {
	if len(NonDominated(nil)) != 0 {
		t.Fatal("empty input should yield empty front")
	}
}

func TestArchiveAddEvict(t *testing.T) {
	a := NewArchive()
	if !a.Add(Point{Objectives: []float64{3, 3}}) {
		t.Fatal("first point must be kept")
	}
	if !a.Add(Point{Objectives: []float64{1, 5}}) {
		t.Fatal("incomparable point must be kept")
	}
	if a.Add(Point{Objectives: []float64{4, 4}}) {
		t.Fatal("dominated point must be rejected")
	}
	if a.Add(Point{Objectives: []float64{3, 3}}) {
		t.Fatal("duplicate point must be rejected (weak dominance)")
	}
	if !a.Add(Point{Objectives: []float64{2, 2}}) {
		t.Fatal("dominating point must be kept")
	}
	if len(a.points) != 2 {
		t.Fatalf("archive size = %d, want 2 ((2,2) evicts (3,3))", len(a.points))
	}
	for _, p := range a.Points() {
		if equalVec(p.Objectives, []float64{3, 3}) {
			t.Fatal("(3,3) should have been evicted")
		}
	}
}

func TestArchivePointsIsCopy(t *testing.T) {
	a := NewArchive()
	a.Add(Point{Objectives: []float64{1, 1}})
	ps := a.Points()
	ps[0] = Point{Objectives: []float64{9, 9}}
	if !equalVec(a.Points()[0].Objectives, []float64{1, 1}) {
		t.Fatal("Points() must return a copy")
	}
}

func TestHypervolume1D(t *testing.T) {
	hv, err := Hypervolume([][]float64{{0.2}, {0.5}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hv-0.8) > 1e-12 {
		t.Fatalf("1-D hv = %v, want 0.8", hv)
	}
}

func TestHypervolume2D(t *testing.T) {
	// Single point (0.5, 0.5) with ref (1,1): area 0.25.
	hv, err := Hypervolume([][]float64{{0.5, 0.5}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hv-0.25) > 1e-12 {
		t.Fatalf("hv = %v, want 0.25", hv)
	}
	// Two-point staircase.
	hv, _ = Hypervolume([][]float64{{0.2, 0.6}, {0.6, 0.2}}, []float64{1, 1})
	want := 0.4*0.4 + 0.4*0.8 // (0.6-0.2)*(1-0.6) + (1-0.6)*(1-0.2) — compute explicitly below
	want = (0.6-0.2)*(1-0.6) + (1-0.6)*(1-0.2)
	if math.Abs(hv-want) > 1e-12 {
		t.Fatalf("hv = %v, want %v", hv, want)
	}
}

func TestHypervolumeIgnoresOutsideAndDominated(t *testing.T) {
	hv1, _ := Hypervolume([][]float64{{0.5, 0.5}}, []float64{1, 1})
	hv2, _ := Hypervolume([][]float64{{0.5, 0.5}, {0.7, 0.7}, {2, 0.1}, {math.NaN(), 0.5}}, []float64{1, 1})
	if hv1 != hv2 {
		t.Fatalf("dominated/outside points changed hv: %v vs %v", hv1, hv2)
	}
}

func TestHypervolume3DCube(t *testing.T) {
	// Point at origin dominates the whole unit cube.
	hv, err := Hypervolume([][]float64{{0, 0, 0}}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hv-1) > 1e-12 {
		t.Fatalf("hv = %v, want 1", hv)
	}
	// Two incomparable points.
	hv, _ = Hypervolume([][]float64{{0, 0.5, 0.5}, {0.5, 0, 0}}, []float64{1, 1, 1})
	// Union volume: A = 1*0.5*0.5 = 0.25, B = 0.5*1*1 = 0.5,
	// intersection = 0.5*0.5*0.5 = 0.125; union = 0.625.
	if math.Abs(hv-0.625) > 1e-12 {
		t.Fatalf("3-D hv = %v, want 0.625", hv)
	}
}

func TestHypervolumeErrors(t *testing.T) {
	if _, err := Hypervolume(nil, nil); err == nil {
		t.Error("empty ref should fail")
	}
	if _, err := Hypervolume([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
	hv, err := Hypervolume(nil, []float64{1, 1})
	if err != nil || hv != 0 {
		t.Errorf("empty front hv = %v, %v", hv, err)
	}
}

func TestNormalizedHypervolume(t *testing.T) {
	objs := [][]float64{{10, 200}, {20, 100}}
	hv, err := NormalizedHypervolume(objs, []float64{10, 100}, []float64{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized points: (0,1) and (1,0) → each contributes zero area?
	// (0,1): width 1, height 0; (1,0): width 0. hv = 0? No: (0,1)
	// covers x∈[0,1),y∈[1,1] → 0; (1,0) covers nothing. But their
	// staircase: sorted (0,1),(1,0): slab1 (1-0)*(1-1)=0, slab2 point
	// (1,0): (1-1)*(1-0)=0.
	if hv != 0 {
		t.Fatalf("hv = %v, want 0 for corner points", hv)
	}
	hv, err = NormalizedHypervolume([][]float64{{10, 100}}, []float64{10, 100}, []float64{20, 200})
	if err != nil || math.Abs(hv-1) > 1e-12 {
		t.Fatalf("ideal point hv = %v, want 1", hv)
	}
}

func TestNormalizedHypervolumeClampsOutliers(t *testing.T) {
	hv, err := NormalizedHypervolume([][]float64{{-100, -100}}, []float64{0, 0}, []float64{1, 1})
	if err != nil || math.Abs(hv-1) > 1e-12 {
		t.Fatalf("clamped outlier hv = %v, %v", hv, err)
	}
}

func TestNormalizedHypervolumeErrors(t *testing.T) {
	if _, err := NormalizedHypervolume(nil, []float64{0}, []float64{0}); err == nil {
		t.Error("nadir == ideal should fail")
	}
	if _, err := NormalizedHypervolume(nil, []float64{0, 0}, []float64{1}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := NormalizedHypervolume([][]float64{{1}}, []float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("obj dim mismatch should fail")
	}
}

func TestIdealNadir(t *testing.T) {
	ideal, nadir, err := IdealNadir([][]float64{{1, 5}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !equalVec(ideal, []float64{1, 2}) || !equalVec(nadir, []float64{3, 5}) {
		t.Fatalf("ideal=%v nadir=%v", ideal, nadir)
	}
	if _, _, err := IdealNadir(nil); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := IdealNadir([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged input should fail")
	}
}

// Property: no point in a NonDominated front dominates another.
func TestNonDominatedMutualProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var points []Point
		for i := 0; i+1 < len(raw); i += 2 {
			points = append(points, Point{Objectives: []float64{float64(raw[i] % 50), float64(raw[i+1] % 50)}})
		}
		front := NonDominated(points)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i].Objectives, front[j].Objectives) {
					return false
				}
			}
		}
		// Every input point is weakly dominated by some front point.
		for _, p := range points {
			ok := false
			for _, q := range front {
				if WeaklyDominates(q.Objectives, p.Objectives) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hypervolume is monotone — adding a point never decreases it,
// and the result is within [0, prod(ref)] for points in the unit box.
func TestHypervolumeMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ref := []float64{1, 1}
		var objs [][]float64
		prev := 0.0
		for i := 0; i < 8; i++ {
			objs = append(objs, []float64{rng.Float64(), rng.Float64()})
			hv, err := Hypervolume(objs, ref)
			if err != nil {
				t.Fatal(err)
			}
			if hv < prev-1e-12 {
				t.Fatalf("hv decreased from %v to %v", prev, hv)
			}
			if hv < 0 || hv > 1+1e-12 {
				t.Fatalf("hv out of range: %v", hv)
			}
			prev = hv
		}
	}
}

// Property: 3-D hypervolume agrees with Monte Carlo estimation.
func TestHypervolume3DMonteCarloProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var objs [][]float64
		for i := 0; i < 6; i++ {
			objs = append(objs, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		}
		ref := []float64{1, 1, 1}
		hv, err := Hypervolume(objs, ref)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 40000
		hits := 0
		for s := 0; s < samples; s++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			for _, o := range objs {
				if WeaklyDominates(o, x) {
					hits++
					break
				}
			}
		}
		mc := float64(hits) / samples
		if math.Abs(hv-mc) > 0.02 {
			t.Fatalf("trial %d: hv = %v, monte carlo = %v", trial, hv, mc)
		}
	}
}

// Property: the archive always remains mutually non-dominated under
// random insertion.
func TestArchiveInvariantProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		a := NewArchive()
		for i := 0; i+1 < len(raw); i += 2 {
			a.Add(Point{Objectives: []float64{float64(raw[i] % 30), float64(raw[i+1] % 30)}})
		}
		ps := a.Points()
		for i := range ps {
			for j := range ps {
				if i != j && WeaklyDominates(ps[i].Objectives, ps[j].Objectives) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReferenceCoversEveryFront(t *testing.T) {
	a := []Point{{Objectives: []float64{1, 10}}, {Objectives: []float64{3, 4}}}
	b := []Point{{Objectives: []float64{8, 2}}, {Objectives: []float64{0.5, 20}}}
	ref, err := SharedReference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][]Point{a, b} {
		for _, p := range f {
			for i := range p.Objectives {
				if p.Objectives[i] >= ref[i] {
					t.Fatalf("reference %v does not strictly cover point %v", ref, p.Objectives)
				}
			}
		}
	}
	// Every point must contribute nonzero volume against the shared
	// reference, including the pooled-nadir extremes.
	for _, f := range [][]Point{a, b} {
		for _, p := range f {
			hv, err := Hypervolume([][]float64{p.Objectives}, ref)
			if err != nil {
				t.Fatal(err)
			}
			if hv <= 0 {
				t.Fatalf("point %v contributes no volume under shared reference %v", p.Objectives, ref)
			}
		}
	}
}

func TestSharedReferenceDegenerateDimension(t *testing.T) {
	// All points share objective 1: a zero range is padded by 1, not 0.
	f := []Point{{Objectives: []float64{1, 7}}, {Objectives: []float64{2, 7}}}
	ref, err := SharedReference(f)
	if err != nil {
		t.Fatal(err)
	}
	if ref[1] != 8 {
		t.Fatalf("degenerate dimension reference = %v, want nadir+1 = 8", ref[1])
	}
}

func TestSharedReferenceErrors(t *testing.T) {
	if _, err := SharedReference(); err == nil {
		t.Fatal("no fronts accepted")
	}
	if _, err := SharedReference([]Point{}, []Point{}); err == nil {
		t.Fatal("empty fronts accepted")
	}
	mixed := []Point{{Objectives: []float64{1, 2}}, {Objectives: []float64{1, 2, 3}}}
	if _, err := SharedReference(mixed); err == nil {
		t.Fatal("mixed dimensionality accepted")
	}
}

// TestSharedReferenceRankingScaleInvariant pins the property the racing
// meta-optimizer depends on: ranking fronts by hypervolume-per-
// evaluation against a SharedReference must not change when the raw
// objectives are rescaled per dimension (e.g. seconds vs milliseconds,
// joules vs kilojoules). The affine map from pooled bounds makes the
// comparison unit-free.
func TestSharedReferenceRankingScaleInvariant(t *testing.T) {
	better := [][]float64{{1, 1}, {0.5, 2}, {2, 0.5}}
	worse := [][]float64{{3, 3}, {2.5, 4}}
	evals := map[string]int{"better": 30, "worse": 20}

	// Score exactly as the race does: raw hypervolume against the one
	// shared reference, divided by the contender's evaluation count.
	score := func(fronts map[string][][]float64) (sb, sw float64) {
		var all []Point
		pts := map[string][]Point{}
		for name, f := range fronts {
			for _, o := range f {
				pts[name] = append(pts[name], Point{Objectives: o})
			}
			all = append(all, pts[name]...)
		}
		ref, err := SharedReference(all)
		if err != nil {
			t.Fatal(err)
		}
		perEval := func(name string) float64 {
			hv, err := Hypervolume(objectivesOf(pts[name]), ref)
			if err != nil {
				t.Fatal(err)
			}
			return hv / float64(evals[name])
		}
		return perEval("better"), perEval("worse")
	}

	for _, scale := range [][]float64{{1, 1}, {1000, 1}, {1, 0.001}, {1e6, 1e-6}} {
		fronts := map[string][][]float64{}
		for name, f := range map[string][][]float64{"better": better, "worse": worse} {
			for _, o := range f {
				fronts[name] = append(fronts[name], []float64{o[0] * scale[0], o[1] * scale[1]})
			}
		}
		sb, sw := score(fronts)
		if sb <= sw {
			t.Fatalf("scale %v flips the ranking: better=%g worse=%g", scale, sb, sw)
		}
	}
}

func objectivesOf(pts []Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Objectives
	}
	return out
}
