package multiversion

import (
	"testing"

	"autotune/internal/skeleton"
)

func rankUnit() *Unit {
	return &Unit{
		Region:         "mm#0",
		ObjectiveNames: []string{"time", "resources"},
		Versions: []Version{
			{Meta: Meta{Config: skeleton.Config{64, 1}, Tiles: []int64{64}, Threads: 1, Objectives: []float64{1.0, 1.0}}},
			{Meta: Meta{Config: skeleton.Config{32, 10}, Tiles: []int64{32}, Threads: 10, Objectives: []float64{0.12, 1.2}}},
			{Meta: Meta{Config: skeleton.Config{16, 40}, Tiles: []int64{16}, Threads: 40, Objectives: []float64{0.04, 1.6}}},
		},
	}
}

func isPermutation(t *testing.T, order []int, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("ranking %v has %d entries, want %d", order, len(order), n)
	}
	seen := map[int]bool{}
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("ranking %v is not a permutation of 0..%d", order, n-1)
		}
		seen[i] = true
	}
}

func TestRankWeightedAgreesWithSelect(t *testing.T) {
	u := rankUnit()
	for _, w := range [][]float64{{1, 0}, {0, 1}, {1, 1}, {0.3, 0.7}} {
		order, err := u.RankWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		isPermutation(t, order, len(u.Versions))
		best, err := u.SelectWeighted(w)
		if err != nil {
			t.Fatal(err)
		}
		if order[0] != best {
			t.Fatalf("weights %v: rank head %d != select %d", w, order[0], best)
		}
	}
	// Time priority ranks fastest-first.
	order, _ := u.RankWeighted([]float64{1, 0})
	if order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("time-priority rank = %v, want [2 1 0]", order)
	}
}

func TestRankWeightedValidation(t *testing.T) {
	u := rankUnit()
	if _, err := u.RankWeighted([]float64{1}); err == nil {
		t.Error("weight arity mismatch accepted")
	}
	if _, err := u.RankWeighted([]float64{-1, 0}); err == nil {
		t.Error("negative weight accepted")
	}
	empty := &Unit{Region: "r", ObjectiveNames: []string{"t", "r"}}
	if _, err := empty.RankWeighted([]float64{1, 0}); err == nil {
		t.Error("empty table accepted")
	}
}

// constrainedChoice is the single-choice selection rule, by brute
// force: the smallest optimize value among versions whose constrain
// value is within budget, else the smallest constrain value.
func constrainedChoice(u *Unit, optimize, constrain int, budget float64) int {
	best, fallback := -1, 0
	for i, v := range u.Versions {
		o := v.Meta.Objectives
		if o[constrain] < u.Versions[fallback].Meta.Objectives[constrain] {
			fallback = i
		}
		if o[constrain] <= budget && (best < 0 || o[optimize] < u.Versions[best].Meta.Objectives[optimize]) {
			best = i
		}
	}
	if best < 0 {
		return fallback
	}
	return best
}

func TestRankConstrainedAgreesWithSelect(t *testing.T) {
	u := rankUnit()
	for _, budget := range []float64{0.5, 1.0, 1.3, 2.0} {
		order, err := u.RankConstrained(0, 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		isPermutation(t, order, len(u.Versions))
		if best := constrainedChoice(u, 0, 1, budget); order[0] != best {
			t.Fatalf("budget %v: rank head %d != select %d", budget, order[0], best)
		}
	}
	// Budget 1.3 admits v0 and v1: fastest within budget first, then
	// the out-of-budget v2 as graceful degradation.
	order, _ := u.RankConstrained(0, 1, 1.3)
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Fatalf("constrained rank = %v, want [1 0 2]", order)
	}
	// An impossible budget degrades to ascending constrained value,
	// the smallest first.
	for _, budget := range []float64{0.1, 0.5} {
		order, _ = u.RankConstrained(0, 1, budget)
		if order[0] != 0 || order[1] != 1 || order[2] != 2 {
			t.Fatalf("budget %v: degraded rank = %v, want [0 1 2]", budget, order)
		}
	}
}

func TestRankConstrainedValidation(t *testing.T) {
	u := rankUnit()
	if _, err := u.RankConstrained(5, 1, 1); err == nil {
		t.Error("bad objective index accepted")
	}
	empty := &Unit{Region: "r", ObjectiveNames: []string{"t", "r"}}
	if _, err := empty.RankConstrained(0, 1, 1); err == nil {
		t.Error("empty table accepted")
	}
}

func TestWeightedScores(t *testing.T) {
	u := rankUnit()
	scores, err := u.weightedScores([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized time: v2 is the minimum (0), v0 the maximum (1).
	if scores[2] != 0 || scores[0] != 1 {
		t.Fatalf("scores = %v", scores)
	}
	if scores[1] <= scores[2] || scores[1] >= scores[0] {
		t.Fatalf("middle score out of order: %v", scores)
	}
}
