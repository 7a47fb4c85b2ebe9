// Package perfmodel is the deterministic analytical performance model
// that substitutes for native execution on the paper's two testbeds
// (see DESIGN.md §2). Given a machine description, a kernel model and a
// configuration (tile sizes + thread count) it predicts the execution
// time of the tiled, collapsed, parallelized kernel.
//
// The model is built from the physical mechanisms the paper's
// observations rest on, so the *shape* of its predictions matches the
// measurements the paper reports:
//
//   - Per-tile working sets are classified against the effective cache
//     capacity per thread. Private levels (L1/L2) offer their full
//     size; the shared L3 is divided among the threads co-located on a
//     socket — this makes optimal tile sizes depend on the thread
//     count (paper Fig. 2).
//   - Data traffic into the tile-holding level is charged against a
//     per-thread bandwidth for cache levels and against the *shared*
//     socket memory bandwidth for DRAM — speedup saturates and
//     efficiency decays with rising thread counts (paper Fig. 1).
//   - Work is distributed block-wise over the collapsed parallel
//     iteration space; the ceil-based imbalance factor penalizes large
//     tiles that leave too few parallel iterations (paper §IV:
//     collapsing mitigates load-balancing issues).
//   - A fixed fork/join overhead per parallel region and a loop
//     overhead term for very small innermost tiles round out the
//     model.
//
// A small deterministic "measurement noise" derived from a hash of the
// configuration can be added to mimic the run-to-run variation a real
// testbed exhibits; the evaluator takes medians over repetitions just
// like the paper does.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"autotune/internal/machine"
)

// KernelModel describes one kernel's analytic characteristics. All
// functions must be pure. Tile slices always have TileDims entries.
type KernelModel struct {
	Name     string
	TileDims int
	// Flops is the total floating-point operation count.
	Flops func(n int64) float64
	// Accesses is the total number of scalar memory accesses.
	Accesses func(n int64) float64
	// WorkingSet returns the bytes of the per-tile working set that
	// must reside in a cache level for the tiling to pay off fully.
	WorkingSet func(n int64, tiles []int64) int64
	// LevelTraffic returns the bytes that flow INTO a cache level of
	// the given effective capacity over the whole computation, given
	// the code's tile sizes. Implementations perform a reuse-distance
	// analysis with LRU cliffs: each reuse pattern of the kernel
	// either fits (its refetches are free) or does not (its stream is
	// charged in full). This per-level classification is what makes
	// optimal tile sizes depend on the effective capacity — and thus,
	// through shared-L3 division, on the thread count.
	LevelTraffic func(n int64, tiles []int64, c Capacity) float64
	// ParIters returns the number of parallel iterations the runtime
	// distributes (the collapsed outer tile loops).
	ParIters func(n int64, tiles []int64) int64
	// InnerTrip returns the innermost loop trip count, used for loop
	// overhead modeling.
	InnerTrip func(n int64, tiles []int64) float64
	// TotalData is the aggregate byte size of all arrays (compulsory
	// traffic floor).
	TotalData func(n int64) int64
}

// Validate checks that all required functions are present.
func (k *KernelModel) Validate() error {
	if k.Name == "" {
		return errors.New("perfmodel: kernel model without name")
	}
	if k.TileDims <= 0 {
		return fmt.Errorf("perfmodel: kernel %s has no tile dimensions", k.Name)
	}
	if k.Flops == nil || k.Accesses == nil || k.WorkingSet == nil ||
		k.LevelTraffic == nil || k.ParIters == nil || k.InnerTrip == nil || k.TotalData == nil {
		return fmt.Errorf("perfmodel: kernel %s has missing model functions", k.Name)
	}
	return nil
}

// Capacity describes the effective capacity of one cache level as seen
// by one thread of a parallel region. For private levels PerThread ==
// Total; for shared levels PerThread is the fair per-thread share.
// Kernels whose threads share read-only data (e.g. the n-body position
// array) may test such structures against Total minus the co-located
// threads' private footprints instead of PerThread.
type Capacity struct {
	// PerThread is the usable bytes available to one thread assuming
	// disjoint working sets.
	PerThread int64
	// Total is the usable bytes of the whole cache instance.
	Total int64
	// Sharers is the number of threads sharing one instance.
	Sharers int
}

// Model evaluates configurations on one machine.
type Model struct {
	Machine *machine.Machine
	// NoiseAmp is the relative amplitude of the deterministic
	// pseudo-noise (e.g. 0.01 for ±1%); 0 disables noise.
	NoiseAmp float64
	// Overlap is the fraction of the smaller of compute/memory time
	// hidden under the larger (0 = fully serialized, 1 = perfect
	// overlap). Default used by New: 0.75.
	Overlap float64
}

// New returns a Model for m with the default overlap factor and no
// noise.
func New(m *machine.Machine) *Model {
	return &Model{Machine: m, Overlap: 0.75}
}

// perThreadCacheBandwidth returns the sustainable per-thread fill
// bandwidth (bytes/second) from the level with the given latency,
// assuming a handful of outstanding line fills.
func (mo *Model) perThreadCacheBandwidth(latencyCycles float64, lineBytes int) float64 {
	const outstanding = 4
	cyclesPerSec := mo.Machine.ClockGHz * 1e9
	return outstanding * float64(lineBytes) / latencyCycles * cyclesPerSec
}

// TimeUnrolled predicts the execution time in seconds of kernel k with
// problem size n under the given tile sizes, thread count and
// innermost-loop unroll factor (1: not unrolled). rep differentiates
// repeated "measurements" when noise is enabled. Unrolling amortizes
// the loop-control overhead over u iterations but costs
// instruction-cache and register pressure at larger factors, giving an
// interior optimum that depends on the innermost trip count.
func (mo *Model) TimeUnrolled(k *KernelModel, n int64, tiles []int64, threads int, unroll int64, rep int) (float64, error) {
	if err := k.Validate(); err != nil {
		return 0, err
	}
	total, err := mo.noiseless(k, n, tiles, threads, unroll)
	if err != nil {
		return 0, err
	}
	if mo.NoiseAmp > 0 {
		total *= 1 + mo.NoiseAmp*noiseKey(k.Name, mo.Machine.Name, n, tiles, threads, int(unroll)).at(rep)
	}
	return total, nil
}

// Problem is a kernel model at one problem size on the model's
// machine: what a simulated evaluator predicts configuration after
// configuration. It hashes the part of the noise key that all its
// configurations share — kernel, machine and size — once.
type Problem struct {
	mo     *Model
	k      *KernelModel
	n      int64
	prefix fnv1a
}

// Problem binds k at problem size n to the model. k must have passed
// Validate; callers on a hot path validate once up front.
func (mo *Model) Problem(k *KernelModel, n int64) Problem {
	return Problem{mo: mo, k: k, n: n, prefix: noisePrefix(k.Name, mo.Machine.Name, n)}
}

// Repetitions fills times[r] with the prediction for repetition r — what
// len(times) TimeUnrolled calls with rep = 0, 1, … return, bit for bit —
// in one pass over the model: the repetitions differ only in the noise
// factor applied to the deterministic total, and the noise hashes only
// in their last field.
func (p Problem) Repetitions(tiles []int64, threads int, unroll int64, times []float64) error {
	total, err := p.mo.noiseless(p.k, p.n, tiles, threads, unroll)
	if err != nil {
		return err
	}
	for rep := range times {
		times[rep] = total
	}
	if amp := p.mo.NoiseAmp; amp > 0 {
		key := p.prefix.config(tiles, threads, int(unroll))
		for rep := range times {
			times[rep] *= 1 + amp*key.at(rep)
		}
	}
	return nil
}

// noiseless is the deterministic part of the model: everything but the
// per-repetition noise factor. k has passed Validate.
func (mo *Model) noiseless(k *KernelModel, n int64, tiles []int64, threads int, unroll int64) (float64, error) {
	if unroll < 1 {
		return 0, fmt.Errorf("perfmodel: unroll factor %d out of range", unroll)
	}
	if len(tiles) != k.TileDims {
		return 0, fmt.Errorf("perfmodel: kernel %s wants %d tile sizes, got %d", k.Name, k.TileDims, len(tiles))
	}
	for _, t := range tiles {
		if t < 1 {
			return 0, fmt.Errorf("perfmodel: tile size %d out of range", t)
		}
	}
	m := mo.Machine
	placement, err := m.Pin(threads)
	if err != nil {
		return 0, err
	}

	flops := k.Flops(n)
	memBWPerThread := mo.memBandwidthPerThread(placement)

	// Sum per-boundary transfer times. Boundary i moves data into
	// cache level i from level i+1 (or from memory for the last
	// level); the traffic is the kernel's reuse-distance analysis
	// evaluated at the level's effective per-thread capacity.
	tMem := 0.0
	for i, lvl := range m.Caches {
		usable := lvl.UsableFraction()
		sharers := 1
		if lvl.Scope == machine.PerSocket {
			sharers = placement.MaxThreadsOnSocket()
		} else if lvl.Scope == machine.Global {
			sharers = threads
		}
		c := Capacity{
			PerThread: int64(float64(m.SharedCacheShare(lvl, placement)) * usable),
			Total:     int64(float64(lvl.SizeBytes) * usable),
			Sharers:   sharers,
		}
		traffic := k.LevelTraffic(n, tiles, c)
		var bw float64
		if i < len(m.Caches)-1 {
			outer := m.Caches[i+1]
			bw = mo.perThreadCacheBandwidth(outer.LatencyCycles, outer.LineBytes)
		} else {
			bw = memBWPerThread
		}
		tMem += traffic / float64(threads) / bw
	}

	// Compulsory floor: all data must cross the memory bus at least
	// once, whatever the reuse pattern.
	compulsory := float64(k.TotalData(n))
	socketsUsed := float64(placement.SocketsUsed())
	tCompulsory := compulsory / (m.MemBandwidthGBs * 1e9 * socketsUsed)

	// Per-thread compute time with loop-overhead efficiency: very
	// short innermost loops waste issue slots on control.
	inner := k.InnerTrip(n, tiles)
	if inner < 1 {
		inner = 1
	}
	// Unrolling spreads the per-iteration control overhead over u
	// iterations (effective factor capped by the trip count) at a mild
	// instruction-cache/register-pressure cost.
	u := float64(unroll)
	if u > inner {
		u = inner
	}
	loopEff := inner / (inner + 4/u)
	loopEff /= 1 + 0.015*(float64(unroll)-1)
	flopRate := m.EffectiveClockGHz(placement) * 1e9 * m.FlopsPerCycle * loopEff
	tCompute := flops / float64(threads) / flopRate

	// Partial overlap of compute and memory.
	hi, lo := tCompute, tMem
	if lo > hi {
		hi, lo = lo, hi
	}
	tBusy := hi + (1-mo.Overlap)*lo

	// Load imbalance over the collapsed parallel iteration space.
	iters := k.ParIters(n, tiles)
	if iters < 1 {
		iters = 1
	}
	imbalance := 1.0
	if threads > 1 {
		maxIters := (iters + int64(threads) - 1) / int64(threads)
		imbalance = float64(maxIters) * float64(threads) / float64(iters)
	}
	tBusy *= imbalance

	if tBusy < tCompulsory {
		tBusy = tCompulsory
	}

	// Fork/join overhead grows with the number of threads involved.
	tOverhead := m.ParallelOverheadUS * 1e-6 * float64(threads)
	return tBusy + tOverhead, nil
}

// memBandwidthPerThread returns the DRAM bandwidth available to one
// thread on the most loaded socket, including the NUMA degradation
// once the computation spans several sockets.
func (mo *Model) memBandwidthPerThread(p machine.Placement) float64 {
	perSocket := mo.Machine.MemBandwidthGBs * 1e9
	perSocket /= 1 + mo.Machine.NUMAPenalty*float64(p.SocketsUsed()-1)
	nt := p.MaxThreadsOnSocket()
	if nt < 1 {
		nt = 1
	}
	// A single thread cannot saturate the socket's controllers; cap
	// its share at 60% of the socket bandwidth.
	share := perSocket / float64(nt)
	if bwCap := 0.6 * perSocket; share > bwCap {
		share = bwCap
	}
	// Latency-limited per-thread ceiling.
	lat := mo.Machine.MemLatencyCycles
	line := mo.Machine.Caches[0].LineBytes
	ceil := mo.perThreadCacheBandwidth(lat, line)
	if share > ceil {
		share = ceil
	}
	return share
}

// noiseKey starts the hash behind a repetition's measurement noise: a
// deterministic pseudo-random value in [-1, 1] keyed on the full
// configuration identity and the repetition index, the FNV-1a-64 hash
// of the bytes fmt renders for "%s|%s|%d|%v|%d|%d|%d" (tiles as
// "[t1 t2 …]"), folded piece by piece so nothing is formatted into a
// buffer or allocated. noiseKey hashes everything up to and including
// the '|' before the repetition index — the part all repetitions of one
// configuration share — and at finishes it. The byte stream is pinned
// against the fmt + hash/fnv reference in noise_test.go; every
// fixed-seed front depends on it.
func noiseKey(kernel, mach string, n int64, tiles []int64, threads, unroll int) fnv1a {
	return noisePrefix(kernel, mach, n).config(tiles, threads, unroll)
}

// noisePrefix hashes the part of a noise key that every configuration
// of one problem shares: "kernel|machine|n|[".
func noisePrefix(kernel, mach string, n int64) fnv1a {
	return fnv1a(fnvOffset64).str(kernel).byte('|').str(mach).byte('|').int(n).byte('|').byte('[')
}

// config continues a noisePrefix hash with one configuration, up to the
// '|' before the repetition index.
func (h fnv1a) config(tiles []int64, threads, unroll int) fnv1a {
	for i, t := range tiles {
		if i > 0 {
			h = h.byte(' ')
		}
		h = h.int(t)
	}
	return h.byte(']').byte('|').int(int64(threads)).byte('|').int(int64(unroll)).byte('|')
}

// at finishes a noiseKey hash with the repetition index and maps it to
// [-1, 1].
func (h fnv1a) at(rep int) float64 {
	return float64(uint64(h.int(int64(rep)))%2000001)/1000000 - 1
}

// fnv1a is a running FNV-1a-64 hash (hash/fnv's New64a, inlined).
type fnv1a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h fnv1a) byte(b byte) fnv1a { return (h ^ fnv1a(b)) * fnvPrime64 }

func (h fnv1a) str(s string) fnv1a {
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h
}

// int folds the decimal rendering of v (what %d prints).
func (h fnv1a) int(v int64) fnv1a {
	var buf [20]byte // len("-9223372036854775808")
	for _, b := range strconv.AppendInt(buf[:0], v, 10) {
		h = h.byte(b)
	}
	return h
}

// Speedup returns t_seq / t_par for convenience.
func Speedup(tSeq, tPar float64) float64 {
	if tPar <= 0 {
		return math.Inf(1)
	}
	return tSeq / tPar
}

// Efficiency returns Speedup / threads.
func Efficiency(tSeq, tPar float64, threads int) float64 {
	if threads <= 0 {
		return 0
	}
	return Speedup(tSeq, tPar) / float64(threads)
}

// Resources returns the resource-usage cost threads × time, the
// minimized counterpart of efficiency used as the second objective
// throughout the evaluation (paper Fig. 8: "resource usage").
func Resources(tPar float64, threads int) float64 {
	return tPar * float64(threads)
}

// Energy estimates the energy in joules consumed by a run: static
// socket power for the duration plus dynamic per-core power. It backs
// the optional third objective.
func (mo *Model) Energy(tPar float64, threads int) float64 {
	const (
		staticPerSocketW = 35.0
		dynamicPerCoreW  = 18.0
	)
	p, err := mo.Machine.Pin(threads)
	if err != nil {
		return math.Inf(1)
	}
	return tPar * (staticPerSocketW*float64(p.SocketsUsed()) + dynamicPerCoreW*float64(threads))
}
