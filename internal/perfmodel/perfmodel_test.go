package perfmodel

import (
	"math"
	"testing"

	"autotune/internal/machine"
)

// toyModel is a deliberately simple kernel model: N^2 flops, working
// set 8*t0*t1 bytes, traffic inversely proportional to tile sizes when
// resident and a large constant otherwise.
func toyModel() *KernelModel {
	return &KernelModel{
		Name:     "toy",
		TileDims: 2,
		Flops:    func(n int64) float64 { return float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 2 * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			return 8 * t[0] * t[1]
		},
		LevelTraffic: func(n int64, t []int64, c Capacity) float64 {
			if 8*t[0]*t[1] <= c.PerThread {
				return float64(n) * float64(n) / float64(t[0])
			}
			return 100 * float64(n) * float64(n)
		},
		ParIters:  func(n int64, t []int64) int64 { return (n + t[0] - 1) / t[0] },
		InnerTrip: func(n int64, t []int64) float64 { return float64(t[1]) },
		TotalData: func(n int64) int64 { return 8 * n * n },
	}
}

func TestValidateKernelModel(t *testing.T) {
	m := toyModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := toyModel()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name should fail")
	}
	bad = toyModel()
	bad.TileDims = 0
	if bad.Validate() == nil {
		t.Error("zero tile dims should fail")
	}
	bad = toyModel()
	bad.LevelTraffic = nil
	if bad.Validate() == nil {
		t.Error("missing function should fail")
	}
}

func TestTimeArgumentChecks(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	if _, err := mo.TimeUnrolled(k, 1000, []int64{8}, 1, 1, 0); err == nil {
		t.Error("wrong tile count should fail")
	}
	if _, err := mo.TimeUnrolled(k, 1000, []int64{0, 8}, 1, 1, 0); err == nil {
		t.Error("tile size 0 should fail")
	}
	if _, err := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 0, 1, 0); err == nil {
		t.Error("0 threads should fail")
	}
	if _, err := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 41, 1, 0); err == nil {
		t.Error("41 threads on Westmere should fail")
	}
	if _, err := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 1, 1, 0); err != nil {
		t.Errorf("valid call failed: %v", err)
	}
}

func TestTimePositiveAndDeterministic(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	t1, err := mo.TimeUnrolled(k, 1000, []int64{16, 16}, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 || math.IsNaN(t1) || math.IsInf(t1, 0) {
		t.Fatalf("time = %v", t1)
	}
	t2, _ := mo.TimeUnrolled(k, 1000, []int64{16, 16}, 4, 1, 0)
	if t1 != t2 {
		t.Fatal("model is not deterministic")
	}
}

func TestMoreThreadsNeverSlowerForScalableKernel(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	prev := math.Inf(1)
	for threads := 1; threads <= 40; threads++ {
		tm, err := mo.TimeUnrolled(k, 100000, []int64{16, 64}, threads, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Allow tiny increases from imbalance granularity.
		if tm > prev*1.2 {
			t.Fatalf("time jumped from %v to %v at %d threads", prev, tm, threads)
		}
		if tm < prev {
			prev = tm
		}
	}
}

func TestOversizedWorkingSetIsPenalized(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	small, _ := mo.TimeUnrolled(k, 100000, []int64{16, 64}, 1, 1, 0)
	// 8*4096*4096 = 128 MB working set fits nowhere.
	big, _ := mo.TimeUnrolled(k, 100000, []int64{4096, 4096}, 1, 1, 0)
	if big <= small {
		t.Fatalf("oversized working set not penalized: %v vs %v", big, small)
	}
}

func TestImbalancePenalty(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	// t0 = n/2 leaves only 2 parallel iterations for 8 threads.
	balanced, _ := mo.TimeUnrolled(k, 4096, []int64{16, 64}, 8, 1, 0)
	imbalanced, _ := mo.TimeUnrolled(k, 4096, []int64{2048, 64}, 8, 1, 0)
	if imbalanced <= balanced {
		t.Fatalf("imbalance not penalized: %v vs %v", imbalanced, balanced)
	}
}

func TestNoisePlumbing(t *testing.T) {
	mo := New(machine.Westmere())
	mo.NoiseAmp = 0.01
	k := toyModel()
	a, _ := mo.TimeUnrolled(k, 1000, []int64{16, 16}, 2, 1, 0)
	b, _ := mo.TimeUnrolled(k, 1000, []int64{16, 16}, 2, 1, 1)
	if a == b {
		t.Fatal("different reps should yield different noisy times")
	}
	// Same rep is reproducible.
	a2, _ := mo.TimeUnrolled(k, 1000, []int64{16, 16}, 2, 1, 0)
	if a != a2 {
		t.Fatal("noisy time not reproducible for same rep")
	}
	// Noise is bounded.
	mo2 := New(machine.Westmere())
	clean, _ := mo2.TimeUnrolled(k, 1000, []int64{16, 16}, 2, 1, 0)
	if math.Abs(a-clean)/clean > 0.011 {
		t.Fatalf("noise out of bounds: %v vs %v", a, clean)
	}
}

func TestSpeedupEfficiencyResources(t *testing.T) {
	if Speedup(10, 2) != 5 {
		t.Error("Speedup wrong")
	}
	if !math.IsInf(Speedup(1, 0), 1) {
		t.Error("Speedup with 0 time should be +Inf")
	}
	if Efficiency(10, 2, 5) != 1 {
		t.Error("Efficiency wrong")
	}
	if Efficiency(10, 2, 0) != 0 {
		t.Error("Efficiency with 0 threads should be 0")
	}
	if Resources(2, 5) != 10 {
		t.Error("Resources wrong")
	}
}

func TestEnergyMonotoneInThreadsAndTime(t *testing.T) {
	mo := New(machine.Westmere())
	e1 := mo.Energy(1.0, 1)
	e2 := mo.Energy(1.0, 10)
	if e2 <= e1 {
		t.Fatal("more cores at same time should cost more energy")
	}
	e3 := mo.Energy(2.0, 1)
	if e3 <= e1 {
		t.Fatal("longer run should cost more energy")
	}
	if !math.IsInf(mo.Energy(1, 1000), 1) {
		t.Fatal("unpinnable thread count should yield +Inf energy")
	}
}

func TestUsableFraction(t *testing.T) {
	usableFraction := func(assoc int) float64 { return machine.CacheLevel{Associativity: assoc}.UsableFraction() }
	if usableFraction(0) != 1 {
		t.Error("assoc 0 should be fully usable")
	}
	lo := usableFraction(2)
	hi := usableFraction(32)
	if !(lo < hi && hi < 1) {
		t.Errorf("usableFraction not monotone: %v, %v", lo, hi)
	}
}

func TestTurboBoostRaisesLowOccupancyClock(t *testing.T) {
	m := machine.Westmere()
	mo := New(m)
	k := toyModel()
	// With turbo, the 1-thread run benefits from a higher clock; the
	// per-thread time at full socket occupancy is relatively slower.
	t1, _ := mo.TimeUnrolled(k, 100000, []int64{16, 64}, 1, 1, 0)
	t10, _ := mo.TimeUnrolled(k, 100000, []int64{16, 64}, 10, 1, 0)
	eff := Efficiency(t1, t10, 10)
	if eff >= 1 {
		t.Fatalf("turbo should cap parallel efficiency below 1, got %v", eff)
	}
}

func TestNUMAPenaltyReducesMultiSocketBandwidth(t *testing.T) {
	m := machine.Barcelona()
	mo := New(m)
	p1, _ := m.Pin(4)  // one socket
	p8, _ := m.Pin(32) // eight sockets
	bw1 := mo.memBandwidthPerThread(p1)
	bw8 := mo.memBandwidthPerThread(p8)
	if bw8 >= bw1 {
		t.Fatalf("NUMA penalty missing: %v vs %v", bw8, bw1)
	}
}
