package metrics

import (
	"math/rand"
	"testing"

	"autotune/internal/pareto"
)

// TestHypervolumeMonotoneUnderArchiveGrowth asserts the defining
// property of the hypervolume indicator: feeding more points into a
// non-dominated archive can only grow (or keep) the dominated volume,
// never shrink it. Violations would make the Table VI V(S) comparisons
// meaningless.
func TestHypervolumeMonotoneUnderArchiveGrowth(t *testing.T) {
	ref := []float64{10, 10}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := pareto.NewArchive()
		prev := 0.0
		for i := 0; i < 40; i++ {
			obj := []float64{1 + 8*rng.Float64(), 1 + 8*rng.Float64()}
			a.Add(pareto.Point{Objectives: obj})
			var objs [][]float64
			for _, p := range a.Points() {
				objs = append(objs, p.Objectives)
			}
			hv, err := pareto.Hypervolume(objs, ref)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if hv < prev-1e-12 {
				t.Fatalf("seed %d step %d: hypervolume shrank from %g to %g after adding %v",
					seed, i, prev, hv, obj)
			}
			prev = hv
		}
	}
}

// TestHypervolumeDominatedPointNoEffect adds a strictly dominated point
// and requires the indicator to be unchanged — the archive must reject
// it and the volume must not move.
func TestHypervolumeDominatedPointNoEffect(t *testing.T) {
	ref := []float64{10, 10}
	a := pareto.NewArchive()
	a.Add(pareto.Point{Objectives: []float64{2, 5}})
	a.Add(pareto.Point{Objectives: []float64{5, 2}})
	base, err := pareto.Hypervolume(frontObjs(a), ref)
	if err != nil {
		t.Fatal(err)
	}
	if a.Add(pareto.Point{Objectives: []float64{6, 6}}) {
		t.Fatal("archive kept a dominated point")
	}
	after, err := pareto.Hypervolume(frontObjs(a), ref)
	if err != nil {
		t.Fatal(err)
	}
	if after != base {
		t.Fatalf("hypervolume moved from %g to %g on a rejected point", base, after)
	}
}

// TestCoverageReflexive pins C(A, A) = 1 for any non-empty front — a
// sanity anchor for the C-metric used by the extended comparison.
func TestCoverageReflexive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var objs [][]float64
		for i := 0; i < 1+rng.Intn(20); i++ {
			objs = append(objs, []float64{rng.Float64(), rng.Float64()})
		}
		c, err := coverage(objs, objs)
		if err != nil {
			t.Fatal(err)
		}
		if c != 1 {
			t.Fatalf("C(A,A) = %g, want 1", c)
		}
	}
}

func frontObjs(a *pareto.Archive) [][]float64 {
	var out [][]float64
	for _, p := range a.Points() {
		out = append(out, p.Objectives)
	}
	return out
}
