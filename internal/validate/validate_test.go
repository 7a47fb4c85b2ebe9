package validate

import (
	"reflect"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

func TestKendallTau(t *testing.T) {
	if tau := kendallTau([]float64{1, 2, 3}, []float64{10, 20, 30}); tau != 1 {
		t.Fatalf("identical order tau = %v", tau)
	}
	if tau := kendallTau([]float64{1, 2, 3}, []float64{30, 20, 10}); tau != -1 {
		t.Fatalf("inverted order tau = %v", tau)
	}
	if tau := kendallTau([]float64{1}, []float64{1}); tau != 0 {
		t.Fatalf("single element tau = %v", tau)
	}
	// Ties in both count as concordant.
	if tau := kendallTau([]float64{1, 1}, []float64{5, 5}); tau != 1 {
		t.Fatalf("tied pairs tau = %v", tau)
	}
}

func TestCacheModelValidationMM(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven simulation")
	}
	mm, _ := kernels.ByName("mm")
	m := machine.Westmere()
	// Small problem with contrasting tilings: L1-friendly, L2-sized,
	// oversized, and untiled.
	tileSets := [][]int64{
		{8, 8, 8},
		{16, 16, 16},
		{32, 32, 32},
		{64, 64, 64},
		{1, 1, 1},
	}
	reps, err := CacheModel(mm, []*machine.Machine{m}, 64, tileSets)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if len(rep.Configs) != len(tileSets) {
		t.Fatalf("configs = %d", len(rep.Configs))
	}
	for _, cr := range rep.Configs {
		for _, lc := range cr.Levels {
			if lc.SimBytes < 0 || lc.ModelBytes < 0 {
				t.Fatalf("negative traffic: %+v", lc)
			}
		}
	}
	// The model must broadly order configurations like the simulator
	// at the innermost level, where the tiling effect is strongest.
	if tau := rep.RankAgreement["L1"]; tau < 0.2 {
		t.Errorf("L1 rank agreement = %.2f, want positive correlation", tau)
	}
}

func TestCacheModelValidationJacobi(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven simulation")
	}
	j2, _ := kernels.ByName("jacobi-2d")
	m := machine.Barcelona()
	tileSets := [][]int64{
		{8, 8},
		{32, 32},
		{128, 128},
	}
	reps, err := CacheModel(j2, []*machine.Machine{m}, 128, tileSets)
	if err != nil {
		t.Fatal(err)
	}
	rep := reps[0]
	if len(rep.RankAgreement) != 3 {
		t.Fatalf("levels = %v", rep.RankAgreement)
	}
}

func TestCacheModelErrors(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	ms := []*machine.Machine{machine.Westmere()}
	if _, err := CacheModel(mm, ms, 32, [][]int64{{8, 8, 8}}); err == nil {
		t.Error("single configuration accepted")
	}
	if _, err := CacheModel(mm, ms, 32, [][]int64{{8, 8}, {4, 4}}); err == nil {
		t.Error("wrong tile dimensionality accepted")
	}
}

// TestCacheModelOnePassEqualsOnePerMachine: tracing each configuration
// once into both machines' hierarchies gives exactly the reports of one
// pass per machine.
func TestCacheModelOnePassEqualsOnePerMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven simulation")
	}
	machines := []*machine.Machine{machine.Westmere(), machine.Barcelona()}
	for _, c := range []struct {
		kernel string
		n      int64
		sets   [][]int64
	}{
		{"mm", 48, [][]int64{{8, 8, 8}, {16, 16, 16}, {1, 1, 1}}},
		{"jacobi-2d", 96, [][]int64{{8, 8}, {16, 32}, {96, 96}}},
	} {
		k, _ := kernels.ByName(c.kernel)
		both, err := CacheModel(k, machines, c.n, c.sets)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range machines {
			one, err := CacheModel(k, []*machine.Machine{m}, c.n, c.sets)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(both[i], one[0]) {
				t.Errorf("%s on %s: one pass over both machines\n%+v\ndiffers from one pass over it alone\n%+v", c.kernel, m.Name, both[i], one[0])
			}
		}
	}
}
