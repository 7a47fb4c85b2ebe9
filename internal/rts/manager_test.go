package rts

import (
	"sync"
	"testing"

	"autotune/internal/multiversion"
	"autotune/internal/skeleton"
)

func namedUnit(t *testing.T, region string, block chan struct{}) *multiversion.Unit {
	t.Helper()
	u := &multiversion.Unit{
		Region:         region,
		ObjectiveNames: []string{"time", "resources"},
		Versions: []multiversion.Version{
			{Meta: multiversion.Meta{Config: skeleton.Config{64, 1}, Tiles: []int64{64}, Threads: 1, Objectives: []float64{1.0, 1.0}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{32, 10}, Tiles: []int64{32}, Threads: 10, Objectives: []float64{0.12, 1.2}}},
			{Meta: multiversion.Meta{Config: skeleton.Config{16, 40}, Tiles: []int64{16}, Threads: 40, Objectives: []float64{0.04, 1.6}}},
		},
	}
	if err := u.Bind(func(m multiversion.Meta) (multiversion.Entry, error) {
		return func() error {
			if block != nil {
				<-block
			}
			return nil
		}, nil
	}); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestManagerBasics(t *testing.T) {
	m, err := NewManager(40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(0); err == nil {
		t.Error("0 cores accepted")
	}
	rtA, _ := New(namedUnit(t, "a", nil), WeightedSum{Weights: []float64{1, 0}})
	rtB, _ := New(namedUnit(t, "b", nil), WeightedSum{Weights: []float64{0, 1}})
	if err := m.Register(rtA); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(rtB); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(rtA); err == nil {
		t.Error("duplicate registration accepted")
	}
	names := m.Regions()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("regions = %v", names)
	}
	idx, err := m.Invoke("a")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("full-machine selection = %d, want 2 (40 threads)", idx)
	}
	if _, err := m.Invoke("zzz"); err == nil {
		t.Error("unknown region accepted")
	}
	if m.Unit("a") == nil || m.Unit("zzz") != nil {
		t.Error("Unit accessor wrong")
	}
	st := m.Stats()
	if st["a"].Invocations != 1 || st["a"].PerVersion[2] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if m.CoresInUse() != 0 {
		t.Fatalf("cores still claimed: %d", m.CoresInUse())
	}
}

func TestManagerConcurrentArbitration(t *testing.T) {
	m, _ := NewManager(40)
	blockA := make(chan struct{})
	rtA, _ := New(namedUnit(t, "a", blockA), WeightedSum{Weights: []float64{1, 0}})
	rtB, _ := New(namedUnit(t, "b", nil), WeightedSum{Weights: []float64{1, 0}})
	if err := m.Register(rtA); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(rtB); err != nil {
		t.Fatal(err)
	}

	// Region a claims 40 cores and blocks inside its entry.
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		if _, err := m.Invoke("a"); err != nil {
			t.Error(err)
		}
	}()
	<-started
	// Wait until the cores are actually claimed.
	for m.CoresInUse() != 40 {
	}
	// With all cores claimed, region b cannot run at all.
	if _, err := m.Invoke("b"); err == nil {
		t.Error("invocation with zero free cores accepted")
	}
	// Release a; now b selects the full-machine version again.
	close(blockA)
	wg.Wait()
	idx, err := m.Invoke("b")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("selection after release = %d, want 2", idx)
	}
}

func TestManagerPartialBudgetSelectsSmallerVersion(t *testing.T) {
	m, _ := NewManager(12)
	rtA, _ := New(namedUnit(t, "a", nil), WeightedSum{Weights: []float64{1, 0}})
	if err := m.Register(rtA); err != nil {
		t.Fatal(err)
	}
	// 12-core machine: the 40-thread version never fits; the 10-thread
	// one does.
	idx, err := m.Invoke("a")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("selection = %d, want 1 (10 threads on a 12-core budget)", idx)
	}
}

// TestManagerInvokeLeavesRuntimeContext: a manager invocation ranks
// under the free cores without writing them into the runtime, so a
// direct Invoke afterwards still runs under the runtime's own context.
func TestManagerInvokeLeavesRuntimeContext(t *testing.T) {
	m, _ := NewManager(12)
	rt, _ := New(namedUnit(t, "a", nil), WeightedSum{Weights: []float64{1, 0}})
	if err := m.Register(rt); err != nil {
		t.Fatal(err)
	}
	if idx, err := m.Invoke("a"); err != nil || idx != 1 {
		t.Fatalf("manager selection = %d, %v, want 1 (10 threads on 12 cores)", idx, err)
	}
	idx, err := rt.Invoke()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("direct selection after a manager invocation = %d, want 2 (40 threads, no core budget set)", idx)
	}
}
