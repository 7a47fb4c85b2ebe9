package multiversion

import (
	"errors"
	"testing"

	"autotune/internal/skeleton"
)

func sampleUnit() *Unit {
	return &Unit{
		Region:         "mm#0",
		ObjectiveNames: []string{"time", "resources"},
		Versions: []Version{
			{Meta: Meta{Config: skeleton.Config{64, 64, 64, 1}, Tiles: []int64{64, 64, 64}, Threads: 1, Objectives: []float64{1.0, 1.0}}},
			{Meta: Meta{Config: skeleton.Config{32, 64, 64, 10}, Tiles: []int64{32, 64, 64}, Threads: 10, Objectives: []float64{0.12, 1.2}}},
			{Meta: Meta{Config: skeleton.Config{32, 32, 64, 40}, Tiles: []int64{32, 32, 64}, Threads: 40, Objectives: []float64{0.04, 1.6}}},
		},
	}
}

func TestValidate(t *testing.T) {
	u := sampleUnit()
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleUnit()
	bad.Region = ""
	if bad.Validate() == nil {
		t.Error("empty region accepted")
	}
	bad = sampleUnit()
	bad.Versions = nil
	if bad.Validate() == nil {
		t.Error("no versions accepted")
	}
	bad = sampleUnit()
	bad.ObjectiveNames = nil
	if bad.Validate() == nil {
		t.Error("no objective names accepted")
	}
	bad = sampleUnit()
	bad.Versions[1].Meta.Objectives = []float64{1}
	if bad.Validate() == nil {
		t.Error("objective arity mismatch accepted")
	}
	bad = sampleUnit()
	bad.Versions[0].Meta.Threads = 0
	if bad.Validate() == nil {
		t.Error("invalid thread count accepted")
	}
}

func TestSelectWeighted(t *testing.T) {
	u := sampleUnit()
	// All weight on time: fastest version (index 2).
	i, err := u.SelectWeighted([]float64{1, 0})
	if err != nil || i != 2 {
		t.Fatalf("time-only selection = %d, %v", i, err)
	}
	// All weight on resources: most efficient (index 0).
	i, err = u.SelectWeighted([]float64{0, 1})
	if err != nil || i != 0 {
		t.Fatalf("resource-only selection = %d, %v", i, err)
	}
	// Balanced: the middle trade-off wins (normalized sums: v0 = 0+1,
	// v1 ≈ 0.083+0.33, v2 = 1+0... wait v2 time norm 0 res norm 1 -> 1;
	// v1 ≈ 0.083 + 0.33 = 0.42 minimal).
	i, err = u.SelectWeighted([]float64{1, 1})
	if err != nil || i != 1 {
		t.Fatalf("balanced selection = %d, %v", i, err)
	}
}

func TestSelectWeightedErrors(t *testing.T) {
	u := sampleUnit()
	if _, err := u.SelectWeighted([]float64{1}); err == nil {
		t.Error("weight arity mismatch accepted")
	}
	if _, err := u.SelectWeighted([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
	empty := &Unit{Region: "r", ObjectiveNames: []string{"a"}}
	if _, err := empty.SelectWeighted([]float64{1}); err == nil {
		t.Error("empty table accepted")
	}
}

func TestSelectWeightedDegenerateSpan(t *testing.T) {
	u := sampleUnit()
	for i := range u.Versions {
		u.Versions[i].Meta.Objectives[1] = 5 // constant objective
	}
	i, err := u.SelectWeighted([]float64{1, 1})
	if err != nil || i != 2 {
		t.Fatalf("selection with constant objective = %d, %v", i, err)
	}
}

// The constrained choice is the head of RankConstrained.
func TestSelectConstrained(t *testing.T) {
	u := sampleUnit()
	// Fastest version with resources <= 1.3: index 1.
	order, err := u.RankConstrained(0, 1, 1.3)
	if err != nil || order[0] != 1 {
		t.Fatalf("constrained selection = %v, %v", order, err)
	}
	// Impossible budget: falls back to the smallest resources (index 0).
	order, err = u.RankConstrained(0, 1, 0.5)
	if err != nil || order[0] != 0 {
		t.Fatalf("fallback selection = %v, %v", order, err)
	}
	if _, err := u.RankConstrained(0, 5, 1); err == nil {
		t.Error("bad objective index accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	u := sampleUnit()
	u.Versions[0].Code = "for (...) {}"
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Region != u.Region || len(v.Versions) != len(u.Versions) {
		t.Fatal("round trip lost structure")
	}
	if v.Versions[0].Code != "for (...) {}" {
		t.Fatal("round trip lost code listing")
	}
	if v.Versions[0].Meta.Threads != 1 || v.Versions[2].Meta.Objectives[0] != 0.04 {
		t.Fatal("round trip lost metadata")
	}
	if v.Versions[0].Entry != nil {
		t.Fatal("entries must not survive serialization")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := Decode([]byte(`{"region":"x"}`)); err == nil {
		t.Error("structurally invalid unit accepted")
	}
}

func TestBind(t *testing.T) {
	u := sampleUnit()
	calls := 0
	err := u.Bind(func(m Meta) (Entry, error) {
		threads := m.Threads
		return func() error {
			calls += threads
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range u.Versions {
		if err := v.Entry(); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1+10+40 {
		t.Fatalf("calls = %d", calls)
	}
	// Binder failure propagates.
	err = u.Bind(func(m Meta) (Entry, error) { return nil, errors.New("nope") })
	if err == nil {
		t.Fatal("binder error swallowed")
	}
}
