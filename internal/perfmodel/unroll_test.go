package perfmodel

import (
	"testing"

	"autotune/internal/machine"
)

// computeBoundModel is a toy kernel whose runtime is dominated by
// computation, so loop-overhead effects (unrolling) are visible.
func computeBoundModel() *KernelModel {
	m := toyModel()
	m.Name = "compute-bound"
	m.Flops = func(n int64) float64 { return 100 * float64(n) * float64(n) }
	m.TotalData = func(n int64) int64 { return 8 * n }
	m.LevelTraffic = func(n int64, t []int64, c Capacity) float64 { return float64(8 * n) }
	return m
}

func TestTimeUnrolledValidation(t *testing.T) {
	mo := New(machine.Westmere())
	k := toyModel()
	if _, err := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 1, 0, 0); err == nil {
		t.Fatal("unroll 0 accepted")
	}
	u1, err := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 1, 1, 0)
	if u1 != plain {
		t.Fatalf("unroll 1 (%v) != Time (%v)", u1, plain)
	}
}

func TestUnrollHelpsShortInnerLoops(t *testing.T) {
	mo := New(machine.Westmere())
	k := computeBoundModel() // inner trip = t[1]
	// Short inner loop: unrolling amortizes control overhead.
	short := []int64{64, 4}
	t1, _ := mo.TimeUnrolled(k, 100000, short, 1, 1, 0)
	t4, _ := mo.TimeUnrolled(k, 100000, short, 1, 4, 0)
	if t4 >= t1 {
		t.Fatalf("unroll 4 (%v) should beat unroll 1 (%v) on a short loop", t4, t1)
	}
}

func TestUnrollInteriorOptimum(t *testing.T) {
	mo := New(machine.Westmere())
	k := computeBoundModel()
	tiles := []int64{64, 16}
	best, bestU := 1e18, int64(0)
	var prev float64
	for u := int64(1); u <= 64; u *= 2 {
		tm, err := mo.TimeUnrolled(k, 100000, tiles, 1, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tm < best {
			best, bestU = tm, u
		}
		prev = tm
	}
	_ = prev
	if bestU == 1 || bestU == 64 {
		t.Fatalf("optimal unroll = %d, want interior (register pressure vs overhead)", bestU)
	}
}

func TestUnrollChangesNoiseStream(t *testing.T) {
	mo := New(machine.Westmere())
	mo.NoiseAmp = 0.01
	k := toyModel()
	a, _ := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 2, 2, 0)
	b, _ := mo.TimeUnrolled(k, 1000, []int64{8, 8}, 2, 4, 0)
	if a == b {
		t.Fatal("different unroll factors should measure differently")
	}
}
