package objective

import (
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/skeleton"
)

func newSim(t *testing.T, noise float64) *Sim {
	t.Helper()
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(SimConfig{Machine: machine.Westmere(), Kernel: mm, NoiseAmp: noise})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(SimConfig{}); err == nil {
		t.Fatal("missing machine/kernel should fail")
	}
}

func TestSimEvaluateBasics(t *testing.T) {
	s := newSim(t, 0)
	objs := s.Evaluate([]skeleton.Config{{64, 64, 64, 10}})
	if len(objs) != 1 || len(objs[0]) != 2 {
		t.Fatalf("objs = %v", objs)
	}
	tm, res := objs[0][0], objs[0][1]
	if tm <= 0 || res <= 0 {
		t.Fatalf("objectives = %v", objs[0])
	}
	// resources = threads*time.
	if diff := res - 10*tm; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("resources %v != 10*time %v", res, tm)
	}
	names := s.ObjectiveNames()
	if names[0] != "time" || names[1] != "resources" {
		t.Fatalf("names = %v", names)
	}
}

func TestSimInvalidConfigs(t *testing.T) {
	s := newSim(t, 0)
	objs := s.Evaluate([]skeleton.Config{
		{64, 64, 64},     // missing threads
		{64, 64, 64, 0},  // bad thread count
		{64, 64, 64, 41}, // exceeds cores
		{0, 64, 64, 4},   // bad tile
		{64, 64, 64, 4},  // valid
	})
	for i := 0; i < 4; i++ {
		if objs[i] != nil {
			t.Errorf("config %d should fail, got %v", i, objs[i])
		}
	}
	if objs[4] == nil {
		t.Error("valid config failed")
	}
}

func TestSimCachingCountsOnce(t *testing.T) {
	s := newSim(t, 0)
	cfg := skeleton.Config{32, 32, 32, 4}
	s.Evaluate([]skeleton.Config{cfg, cfg})
	s.Evaluate([]skeleton.Config{cfg})
	if s.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1 (cached)", s.Evaluations())
	}
	// A second distinct config increments.
	s.Evaluate([]skeleton.Config{{16, 16, 16, 2}})
	if s.Evaluations() != 2 {
		t.Fatalf("evaluations = %d, want 2", s.Evaluations())
	}
}

func TestSimDuplicatesInOneBatchModeledOnce(t *testing.T) {
	s := newSim(t, 0)
	cfg := skeleton.Config{32, 32, 32, 4}
	// 16 copies of the same key in one batch: without in-flight
	// deduplication every copy misses the cache and spawns its own
	// evaluation goroutine. The singleflight leader must model the
	// key exactly once while the followers wait for its result.
	batch := make([]skeleton.Config, 16)
	for i := range batch {
		batch[i] = cfg
	}
	out := s.Evaluate(batch)
	for i, objs := range out {
		if objs == nil || objs[0] != out[0][0] {
			t.Fatalf("duplicate %d got %v", i, objs)
		}
	}
	if modeled := s.modeled.Load(); modeled != 1 {
		t.Fatalf("modeled %d times, want 1", modeled)
	}
	if s.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1", s.Evaluations())
	}
}

func TestSimFailedEvaluationsDoNotCount(t *testing.T) {
	s := newSim(t, 0)
	out := s.Evaluate([]skeleton.Config{
		{64, 64, 64, 0},  // invalid thread count
		{64, 64, 64, 4},  // valid
		{64, 64, 64, 41}, // exceeds cores
	})
	if out[0] != nil || out[1] == nil || out[2] != nil {
		t.Fatalf("out = %v", out)
	}
	// The E metric counts successful distinct evaluations only.
	if s.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1 (failures must not count)", s.Evaluations())
	}
	// Failed configurations stay cached: retrying does not re-model
	// and still does not count.
	s.Evaluate([]skeleton.Config{{64, 64, 64, 0}})
	if s.Evaluations() != 1 {
		t.Fatalf("evaluations = %d after retry, want 1", s.Evaluations())
	}
}

func TestMeasuredFailedEvaluationsDoNotCount(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	m, err := NewMeasured(mm, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad := m.Evaluate([]skeleton.Config{{16, 16}}); bad[0] != nil {
		t.Fatal("invalid config should fail")
	}
	if m.Evaluations() != 0 {
		t.Fatalf("evaluations = %d, want 0", m.Evaluations())
	}
}

func TestSimDeterministicAcrossBatches(t *testing.T) {
	a := newSim(t, 0.01)
	b := newSim(t, 0.01)
	cfgs := []skeleton.Config{{64, 64, 64, 10}, {32, 128, 8, 20}}
	ra := a.Evaluate(cfgs)
	rb := b.Evaluate(cfgs)
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				t.Fatalf("evaluators disagree: %v vs %v", ra[i], rb[i])
			}
		}
	}
}

func TestSimNoiseMedianStable(t *testing.T) {
	noisy := newSim(t, 0.02)
	clean := newSim(t, 0)
	cfg := skeleton.Config{64, 64, 64, 10}
	n := noisy.EvaluateOne(cfg)
	c := clean.EvaluateOne(cfg)
	rel := (n[0] - c[0]) / c[0]
	if rel > 0.021 || rel < -0.021 {
		t.Fatalf("median-of-3 noise too large: %v", rel)
	}
}

func TestSimEnergyObjective(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	s, err := NewSim(SimConfig{
		Machine:    machine.Westmere(),
		Kernel:     mm,
		Objectives: []ObjectiveKind{TimeObjective, ResourceObjective, EnergyObjective},
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := s.EvaluateOne(skeleton.Config{64, 64, 64, 10})
	if len(objs) != 3 || objs[2] <= 0 {
		t.Fatalf("objs = %v", objs)
	}
	if s.ObjectiveNames()[2] != "energy" {
		t.Fatalf("names = %v", s.ObjectiveNames())
	}
}

// NewSim refuses an objective it has no model for, by name, instead of
// answering NaN for it on every evaluation.
func TestNewSimRefusesUnmodeledObjective(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	_, err := NewSim(SimConfig{
		Machine:    machine.Westmere(),
		Kernel:     mm,
		Objectives: []ObjectiveKind{TimeObjective, ObjectiveKind(7)},
	})
	if err == nil || !strings.Contains(err.Error(), "ObjectiveKind(7)") {
		t.Fatalf("NewSim with ObjectiveKind(7): err = %v, want a refusal naming it", err)
	}
}

func TestObjectiveKindString(t *testing.T) {
	if TimeObjective.String() != "time" || ResourceObjective.String() != "resources" ||
		EnergyObjective.String() != "energy" {
		t.Error("objective names wrong")
	}
	if ObjectiveKind(9).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestMeasuredEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("real kernel execution")
	}
	mm, _ := kernels.ByName("mm")
	m, err := NewMeasured(mm, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := m.Evaluate([]skeleton.Config{{16, 16, 16, 2}, {16, 16, 16, 2}})
	if objs[0] == nil || len(objs[0]) != 2 || objs[0][0] <= 0 {
		t.Fatalf("objs = %v", objs)
	}
	if m.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1 (cached)", m.Evaluations())
	}
	if bad := m.Evaluate([]skeleton.Config{{16, 16}}); bad[0] != nil {
		t.Error("invalid config should fail")
	}
	if m.ObjectiveNames()[0] != "time" {
		t.Error("names wrong")
	}
}

func TestNewMeasuredValidation(t *testing.T) {
	if _, err := NewMeasured(nil, 0, 0); err == nil {
		t.Fatal("nil kernel should fail")
	}
}

// TestSimParallelismOption: a batch of 16 evaluates in full.
func TestSimParallelismOption(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	s, err := NewSim(SimConfig{Machine: machine.Westmere(), Kernel: mm})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []skeleton.Config
	for i := int64(1); i <= 16; i++ {
		cfgs = append(cfgs, skeleton.Config{8 * i, 8 * i, 8, 4})
	}
	objs := s.Evaluate(cfgs)
	for i, o := range objs {
		if o == nil {
			t.Fatalf("config %d failed", i)
		}
	}
	if s.Evaluations() != 16 {
		t.Fatalf("evaluations = %d", s.Evaluations())
	}
}
