package perfmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"autotune/internal/israce"
	"autotune/internal/machine"
)

// referenceNoise is the oracle for the noise hash's byte stream: fmt
// renders the identity string into a hash/fnv FNV-1a-64 hasher.
func referenceNoise(kernel, mach string, n int64, tiles []int64, threads, unroll, rep int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%v|%d|%d|%d", kernel, mach, n, tiles, threads, unroll, rep)
	v := h.Sum64()
	return float64(v%2000001)/1000000 - 1
}

// boundNoise is the noise as a Problem computes it: the prefix hashed
// once, when the problem is bound, and finished per configuration.
func boundNoise(kernel, mach string, n int64, tiles []int64, threads, unroll, rep int) float64 {
	mo := New(&machine.Machine{Name: mach})
	return mo.Problem(&KernelModel{Name: kernel}, n).prefix.config(tiles, threads, unroll).at(rep)
}

func TestNoiseMatchesReference(t *testing.T) {
	long := strings.Repeat("a-very-long-kernel-name/", 40)
	cases := []struct {
		kernel, mach         string
		n                    int64
		tiles                []int64
		threads, unroll, rep int
	}{
		{"mm", "Westmere", 1400, nil, 1, 1, 0},
		{"mm", "Westmere", 1400, []int64{}, 1, 1, 0},
		{"mm", "Westmere", 1400, []int64{32}, 1, 1, 0},
		{"mm", "Westmere", 1400, []int64{32, 64}, 10, 1, 1},
		{"mm", "Barcelona", 1400, []int64{32, 64, 128}, 32, 1, 2},
		{"3d-stencil", "Barcelona", 256, []int64{1, 2, 3, 4}, 7, 1, 3},
		{"mm", "Westmere", 1400, []int64{32, 64, 128}, 40, 8, 2},
		{"n-body", "Westmere", -5, []int64{-1, 0, -300}, -4, -2, -1},
		{"", "", 0, []int64{0}, 0, 0, 0},
		{"k", "m", math.MinInt64, []int64{math.MinInt64, math.MaxInt64}, math.MinInt, math.MaxInt, math.MinInt},
		{long, long + "|machine", 1 << 40, []int64{9, 99, 999, 9999, 99999, 999999}, 12, 4, 100},
		{"perc%d|ent", "sp ace[]", 7, []int64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		got := noiseKey(c.kernel, c.mach, c.n, c.tiles, c.threads, c.unroll).at(c.rep)
		want := referenceNoise(c.kernel, c.mach, c.n, c.tiles, c.threads, c.unroll, c.rep)
		if got != want {
			t.Errorf("noise(%.20q, %.20q, %d, %v, %d, %d, %d) = %v, reference %v",
				c.kernel, c.mach, c.n, c.tiles, c.threads, c.unroll, c.rep, got, want)
		}
		if bound := boundNoise(c.kernel, c.mach, c.n, c.tiles, c.threads, c.unroll, c.rep); bound != want {
			t.Errorf("noise(%.20q, %.20q, %d, %v, %d, %d, %d) from the problem's prefix = %v, reference %v",
				c.kernel, c.mach, c.n, c.tiles, c.threads, c.unroll, c.rep, bound, want)
		}
		if got < -1 || got > 1 {
			t.Errorf("noise %v outside [-1, 1]", got)
		}
	}
}

func FuzzNoiseMatchesReference(f *testing.F) {
	f.Add("mm", "Westmere", int64(1400), int64(32), int64(64), int64(128), uint8(3), 10, 1, 2)
	f.Add("", "", int64(math.MinInt64), int64(-1), int64(0), int64(math.MaxInt64), uint8(0), -1, 0, -7)
	f.Add(strings.Repeat("x", 300), "m|", int64(7), int64(1), int64(2), int64(3), uint8(5), 40, 8, 0)
	f.Fuzz(func(t *testing.T, kernel, mach string, n, t0, t1, t2 int64, ntiles uint8, threads, unroll, rep int) {
		tiles := []int64{t0, t1, t2, t0 ^ t1, t1 ^ t2, t2 ^ t0}[:ntiles%7]
		want := referenceNoise(kernel, mach, n, tiles, threads, unroll, rep)
		if got := noiseKey(kernel, mach, n, tiles, threads, unroll).at(rep); got != want {
			t.Fatalf("noise = %v, reference %v", got, want)
		}
		if got := boundNoise(kernel, mach, n, tiles, threads, unroll, rep); got != want {
			t.Fatalf("noise from the problem's prefix = %v, reference %v", got, want)
		}
	})
}

// A Problem's Repetitions is TimeUnrolled for rep = 0, 1, …, to the
// bit, and fails exactly where TimeUnrolled does.
func TestRepetitionsMatchTimeUnrolled(t *testing.T) {
	k := toyModel()
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		for _, amp := range []float64{0, 0.01, 0.2} {
			mo := New(m)
			mo.NoiseAmp = amp
			for _, tiles := range [][]int64{{1, 1}, {8, 64}, {100, 3}, {700, 700}} {
				for _, threads := range []int{1, 3, m.CoresPerSocket, m.Cores()} {
					for _, unroll := range []int64{1, 4} {
						times := make([]float64, 5)
						if err := mo.Problem(k, 700).Repetitions(tiles, threads, unroll, times); err != nil {
							t.Fatal(err)
						}
						for rep, got := range times {
							want, err := mo.TimeUnrolled(k, 700, tiles, threads, unroll, rep)
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s amp=%v tiles=%v threads=%d unroll=%d rep=%d: %v != %v",
									m.Name, amp, tiles, threads, unroll, rep, got, want)
							}
						}
					}
				}
			}
		}
	}
	mo := New(machine.Westmere())
	for _, bad := range []struct {
		tiles           []int64
		threads, unroll int
	}{
		{[]int64{8}, 1, 1}, {[]int64{8, 0}, 1, 1}, {[]int64{8, 8}, 0, 1}, {[]int64{8, 8}, 41, 1}, {[]int64{8, 8}, 1, 0},
	} {
		_, errT := mo.TimeUnrolled(k, 700, bad.tiles, bad.threads, int64(bad.unroll), 0)
		errR := mo.Problem(k, 700).Repetitions(bad.tiles, bad.threads, int64(bad.unroll), make([]float64, 3))
		if errT == nil || errR == nil || errT.Error() != errR.Error() {
			t.Errorf("%+v: TimeUnrolled error %v, Repetitions error %v", bad, errT, errR)
		}
	}
}

func TestModelAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mo := New(machine.Westmere())
	mo.NoiseAmp = 0.01
	k, tiles := toyModel(), []int64{32, 64}
	if a := testing.AllocsPerRun(100, func() { noiseKey("mm", "Westmere", 1400, tiles, 10, 1).at(2) }); a != 0 {
		t.Errorf("noise allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { mo.TimeUnrolled(k, 700, tiles, 12, 2, 1) }); a != 0 {
		t.Errorf("TimeUnrolled allocates %v times per call, want 0", a)
	}
	var times [3]float64
	p := mo.Problem(k, 700)
	if a := testing.AllocsPerRun(100, func() { p.Repetitions(tiles, 12, 2, times[:]) }); a != 0 {
		t.Errorf("Repetitions allocates %v times per call, want 0", a)
	}
}

var sink float64

func BenchmarkNoise(b *testing.B) {
	tiles := []int64{32, 64, 128}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = noiseKey("mm", "Westmere", 1400, tiles, 10, 1).at(i % 3)
	}
}

func BenchmarkTimeUnrolled(b *testing.B) {
	mo := New(machine.Westmere())
	mo.NoiseAmp = 0.01
	k, tiles := toyModel(), []int64{32, 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink, _ = mo.TimeUnrolled(k, 700, tiles, 12, 1, i%3)
	}
}
