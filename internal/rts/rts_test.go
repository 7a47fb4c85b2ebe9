package rts

import (
	"errors"
	"testing"

	"autotune/internal/multiversion"
	"autotune/internal/skeleton"
)

func boundUnit(t *testing.T) (*multiversion.Unit, *[]int) {
	t.Helper()
	u := &multiversion.Unit{
		Region:         "mm#0",
		ObjectiveNames: []string{"time", "resources"},
		Versions: []multiversion.Version{
			{Meta: multiversion.Meta{Config: skeleton.Config{64, 1}, Tiles: []int64{64}, Threads: 1, Objectives: []float64{1.0, 1.0}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{32, 10}, Tiles: []int64{32}, Threads: 10, Objectives: []float64{0.12, 1.2}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{16, 40}, Tiles: []int64{16}, Threads: 40, Objectives: []float64{0.04, 1.6}}},
		},
	}
	executed := &[]int{}
	if err := u.Bind(func(m multiversion.Meta) (multiversion.Entry, error) {
		threads := m.Threads
		return func() error {
			*executed = append(*executed, threads)
			return nil
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return u, executed
}

func TestNewValidation(t *testing.T) {
	u, _ := boundUnit(t)
	if _, err := New(u, nil); err == nil {
		t.Error("nil policy accepted")
	}
	unbound := &multiversion.Unit{
		Region:         "r",
		ObjectiveNames: []string{"t"},
		Versions:       []multiversion.Version{{Meta: multiversion.Meta{Threads: 1, Objectives: []float64{1}}}},
	}
	if _, err := New(unbound, Fixed{}); err == nil {
		t.Error("unbound entries accepted")
	}
	if _, err := New(u, Fixed{}); err != nil {
		t.Errorf("valid unit rejected: %v", err)
	}
}

func TestInvokeWeightedSum(t *testing.T) {
	u, executed := boundUnit(t)
	rt, err := New(u, WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("time-priority selection = %d, want 2", idx)
	}
	if len(*executed) != 1 || (*executed)[0] != 40 {
		t.Fatalf("executed = %v", *executed)
	}
}

func TestPolicySwapChangesSelection(t *testing.T) {
	u, executed := boundUnit(t)
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	if _, err := rt.Invoke(); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPolicy(WeightedSum{Weights: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	idx, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("efficiency-priority selection = %d, want 0", idx)
	}
	if len(*executed) != 2 || (*executed)[1] != 1 {
		t.Fatalf("executed = %v", *executed)
	}
	if err := rt.SetPolicy(nil); err == nil {
		t.Error("nil policy swap accepted")
	}
}

func TestContextCoreBudgetRestrictsSelection(t *testing.T) {
	u, _ := boundUnit(t)
	rt, _ := New(u, WeightedSum{Weights: []float64{1, 0}})
	rt.SetContext(Context{AvailableCores: 12})
	idx, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("12-core selection = %d, want 1 (10 threads)", idx)
	}
	rt.SetContext(Context{})
	idx, _ = rt.Invoke()
	if idx != 2 {
		t.Fatalf("unrestricted selection = %d, want 2", idx)
	}
}

func TestWeightedSumNoFeasibleVersion(t *testing.T) {
	u, _ := boundUnit(t)
	p := WeightedSum{Weights: []float64{1, 0}}
	if _, err := p.Rank(u, Context{AvailableCores: 0}); err != nil {
		t.Fatal(err)
	}
	// Versions need at least 1 core; AvailableCores is positive but
	// lower than every version's thread count cannot happen here (min
	// is 1), so shrink the table.
	solo := &multiversion.Unit{Region: "r", ObjectiveNames: []string{"t", "r"},
		Versions: u.Versions[2:]}
	if _, err := p.Rank(solo, Context{AvailableCores: 8}); err == nil {
		t.Error("expected no-feasible-version error")
	}
}

func TestFastestWithinBudgetPolicy(t *testing.T) {
	u, _ := boundUnit(t)
	p := FastestWithinBudget{Optimize: 0, Constrain: 1, Budget: 1.3}
	order, err := p.Rank(u, Context{})
	if err != nil || order[0] != 1 {
		t.Fatalf("ranking = %v, %v", order, err)
	}
	// Core restriction overrides.
	order, err = p.Rank(u, Context{AvailableCores: 1})
	if err != nil || len(order) != 1 || order[0] != 0 {
		t.Fatalf("restricted ranking = %v, %v", order, err)
	}
	if p.Name() == "" {
		t.Error("policy name empty")
	}
}

// TestBudgetRankingHeadFitsCores: under a core cap the head of the
// ranking is the fastest version within budget among those that fit,
// not the fastest that fits.
func TestBudgetRankingHeadFitsCores(t *testing.T) {
	// (time, resources, threads): v0 = (1, 5, 8), v1 = (2, 10, 2),
	// v2 = (3, 4, 2).
	u := table([]string{"time", "resources"}, []float64{8, 1, 5}, []float64{2, 2, 10}, []float64{2, 3, 4})
	order, err := FastestWithinBudget{Optimize: 0, Constrain: 1, Budget: 5}.Rank(u, Context{AvailableCores: 4})
	if err != nil || len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("ranking = %v, %v, want [2 1]", order, err)
	}
}

func TestFixedPolicy(t *testing.T) {
	u, _ := boundUnit(t)
	order, err := Fixed{Index: 1}.Rank(u, Context{AvailableCores: 1})
	if err != nil || len(order) != 1 || order[0] != 1 {
		t.Fatalf("fixed ranking = %v, %v", order, err)
	}
	if _, err := (Fixed{Index: 9}).Rank(u, Context{}); err == nil {
		t.Error("out-of-range fixed index accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	u, _ := boundUnit(t)
	rt, _ := New(u, Fixed{Index: 1})
	for i := 0; i < 3; i++ {
		if _, err := rt.Invoke(); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Invocations != 3 || st.PerVersion[1] != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Stats are a copy.
	st.PerVersion[1] = 99
	if rt.Stats().PerVersion[1] != 3 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestInvokeEntryFailurePropagates(t *testing.T) {
	u, _ := boundUnit(t)
	u.Versions[0].Entry = func() error { return errors.New("boom") }
	rt, _ := New(u, Fixed{Index: 0})
	if _, err := rt.Invoke(); err == nil {
		t.Fatal("entry failure swallowed")
	}
	if rt.Stats().Invocations != 0 {
		t.Fatal("failed invocation counted")
	}
}
