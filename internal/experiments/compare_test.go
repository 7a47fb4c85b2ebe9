package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
)

// col is what r's row of c shows under the named column.
func col(t *testing.T, c *Comparison, r *Run, name string) string {
	t.Helper()
	i, j := slices.Index(c.Runs, r), slices.Index(c.Header, name)
	if i < 0 || j < 0 {
		t.Fatalf("no %q cell for %s/%s under %v", name, r.Kernel, r.Label, c.Header)
	}
	return c.Rows[i][j]
}

// num is col read as a number.
func num(t *testing.T, c *Comparison, r *Run, name string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(col(t, c, r, name), 64)
	if err != nil {
		t.Fatalf("%s/%s %q: %v", r.Kernel, r.Label, name, err)
	}
	return v
}

// front is a one-search result holding the given points.
func front(points ...[]float64) *optimizer.Result {
	res := &optimizer.Result{Evaluations: len(points)}
	for _, o := range points {
		res.Front = append(res.Front, pareto.Point{Objectives: o})
	}
	return res
}

func TestScoreNormalisesWithinPools(t *testing.T) {
	a := &Run{Label: "a", Results: []*optimizer.Result{front([]float64{0, 2}), front([]float64{2, 0})}}
	b := &Run{Label: "b", Results: []*optimizer.Result{front([]float64{1, 1})}}
	other := &Run{Label: "other", pool: 1, Results: []*optimizer.Result{front([]float64{100, 100})}}
	unscored := &Run{Label: "unscored", pool: -1, Results: []*optimizer.Result{front([]float64{5, 5})}}
	if err := score([]*Run{a, b, other, unscored}); err != nil {
		t.Fatal(err)
	}
	// Pool 0 spans [0,2]²: each of a's one-point fronts sits on a box
	// edge (V 0), b's point dominates a quarter of it.
	if a.V != 0 || b.V != 0.25 {
		t.Errorf("pool 0: V(a) = %v, V(b) = %v, want 0 and 0.25", a.V, b.V)
	}
	// A pool of one point is a degenerate box whose point dominates it
	// whole; a run in pool -1 is left alone.
	if other.V != 1 || unscored.V != 0 {
		t.Errorf("V(other) = %v, V(unscored) = %v, want 1 and 0", other.V, unscored.V)
	}
}

// TestScoreRefusesAFrontItCannotScore: Table VI used to skip a front
// whose hypervolume failed and average |S| and V(S) over the rest,
// printing a wrong row with no error.
func TestScoreRefusesAFrontItCannotScore(t *testing.T) {
	ok := &Run{Kernel: "mm", Label: "ok", Results: []*optimizer.Result{front([]float64{1, 2})}}
	bad := &Run{Kernel: "mm", Label: "bad", Results: []*optimizer.Result{front([]float64{2, 1}), front([]float64{1, 1, 1})}}
	err := score([]*Run{ok, bad})
	if err == nil || !strings.Contains(err.Error(), "mm") {
		t.Fatalf("a front of the wrong dimension scored: err %v, V %v and %v", err, ok.V, bad.V)
	}
	// The same on its own, where the pool's bounds are fine and the
	// hypervolume is what fails.
	empty := &Run{Kernel: "mm", Label: "empty", Results: []*optimizer.Result{front([]float64{})}}
	if err := score([]*Run{empty}); err == nil {
		t.Fatal("a front of no objectives scored")
	}
}

func TestCompareRunsArmsOnDemand(t *testing.T) {
	var order []string
	dependent := func(label, needs string) arm {
		return arm{label: label, pool: -1, run: func(c *cell) (*Run, error) {
			if needs != "" {
				if _, err := c.get(needs); err != nil {
					return nil, err
				}
			}
			order = append(order, label)
			return single(front([]float64{1, 1}), nil)
		}}
	}
	mm, _ := kernels.ByName("mm")
	runs, err := compare([]*kernels.Kernel{mm}, []arm{dependent("a", "c"), dependent("b", ""), dependent("c", "")})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "cab" {
		t.Errorf("arms ran in order %q, want c (for a), a, b", got)
	}
	for i, r := range runs {
		if r.Label != string("abc"[i]) || r.Kernel != "mm" || r.E != 1 || r.S != 1 {
			t.Errorf("run %d = %+v", i, r)
		}
	}
}
