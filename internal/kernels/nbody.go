package kernels

import (
	"math"

	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

// bodyBytes is the modeled per-body footprint: position (3 doubles),
// mass (1 double) read stream plus a 3-double force accumulator.
const bodyBytes = 32

// lineBytesPerBody is the cache footprint of one body on the shared
// j stream: the array-of-structures layout spreads each record across
// a full 64-byte line.
const lineBytesPerBody = 64

// iBodyBytes is the private per-thread footprint of one i-tile body:
// its record line plus the force accumulator.
const iBodyBytes = lineBytesPerBody + 24

func init() {
	register(&Kernel{
		Name:       "n-body",
		Complexity: Complexity{Compute: "O(N^2)", Memory: "O(N)"},
		// 65536 bodies × ~56 B = 3.7 MB: fits comfortably into
		// Westmere's 30 MB L3 but never into Barcelona's 2 MB L3 —
		// the asymmetry behind the paper's Table V observation.
		DefaultN: 65536,
		BenchN:   4096,
		TileDims: 2,
		IR:       nbodyProgram,
		Model:    nbodyModel(),
		Run:      runNBody,
	})
}

// nbodyProgram builds the naive all-pairs force computation:
// F[i] += interact(P[i], P[j]).
func nbodyProgram(n int64) *ir.Program {
	stmt := &ir.Stmt{
		Label:  "F[i] += interact(P[i],P[j])",
		Writes: []ir.Access{{Array: "F", Indices: []ir.Affine{ir.Var("i")}}},
		Reads: []ir.Access{
			{Array: "F", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "P", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "P", Indices: []ir.Affine{ir.Var("j")}},
		},
		Flops: 13,
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "n-body",
		Arrays: []ir.Array{
			{Name: "P", ElemBytes: bodyBytes, Dims: []int64{n}},
			{Name: "F", ElemBytes: 24, Dims: []int64{n}},
		},
		Root: []ir.Node{il},
	}
}

func nbodyModel() *perfmodel.KernelModel {
	return &perfmodel.KernelModel{
		Name:     "n-body",
		TileDims: 2,
		Flops:    func(n int64) float64 { return 13 * float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 4 * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj := clip(t[0], n), clip(t[1], n)
			// i-tile bodies + force accumulators stay resident while a
			// j-tile of source bodies streams through; the strided AoS
			// layout costs a full line per body on the j stream.
			return ti*iBodyBytes + tj*lineBytesPerBody
		},
		LevelTraffic: nbodyLevelTraffic,
		ParIters:     func(n int64, t []int64) int64 { return ceilDiv(n, clip(t[0], n)) },
		InnerTrip: func(n int64, t []int64) float64 {
			return float64(clip(t[1], n))
		},
		TotalData: func(n int64) int64 { return n * (bodyBytes + 24) },
	}
}

// nbodyLevelTraffic: reuse tiers for the blocked all-pairs force
// computation. The j stream (the whole body array) is READ-ONLY and
// shared by every thread on a socket, so it is tested against the
// instance capacity minus the co-located threads' private i-tile
// footprints rather than against the per-thread share — the mechanism
// that keeps the kernel flat on a 30 MB L3 while collapsing on a 2 MB
// one as private tiles crowd the shared data out.
func nbodyLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj := clip(t[0], n), clip(t[1], n)
	nf := float64(n)
	// Transient LRU occupancy of each thread's i-tile walk, capped at
	// half a fair share — a thread cannot crowd out more than that.
	crowd := ti * iBodyBytes
	if lim := c.Total / int64(2*c.Sharers); crowd > lim {
		crowd = lim
	}
	sharedCap := c.Total - int64(c.Sharers)*crowd
	// The i-record re-read per j-tile pass: free once the private
	// i-tile stays resident.
	iTerm := float64(ceilDiv(n, tj)) * nf * float64(iBodyBytes)
	if c.PerThread >= ti*iBodyBytes+tj*lineBytesPerBody/4 {
		iTerm = nf * float64(iBodyBytes)
	}
	if sharedCap >= n*lineBytesPerBody {
		// The whole body array stays resident beside the private
		// tiles: one shared pass suffices.
		return nf*lineBytesPerBody + iTerm
	}
	if sharedCap >= tj*lineBytesPerBody {
		// The j-tile is resident: it is refetched once per i-tile.
		return float64(ceilDiv(n, ti))*nf*lineBytesPerBody + iTerm
	}
	// The j-tile does not fit: the body array streams through for
	// every single i.
	return nf * nf * lineBytesPerBody
}

// runNBody executes the real tiled parallel all-pairs n-body force
// computation. tiles = (ti, tj): the i loop is tiled and parallelized,
// the j loop is blocked for locality.
func runNBody(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("n-body", 2, 1, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj := clip(tiles[0], n), clip(tiles[1], n)
	N := int(n)
	px := make([]float64, N)
	py := make([]float64, N)
	pz := make([]float64, N)
	mass := make([]float64, N)
	fx := make([]float64, N)
	fy := make([]float64, N)
	fz := make([]float64, N)
	for i := 0; i < N; i++ {
		px[i] = float64(i%97) * 0.1
		py[i] = float64(i%89) * 0.2
		pz[i] = float64(i%83) * 0.3
		mass[i] = 1 + float64(i%7)
	}
	parallelBlocks(int(ceilDiv(n, ti)), threads, func(lo, hi int) {
		for bt := lo; bt < hi; bt++ {
			i0 := bt * int(ti)
			i1 := minInt(i0+int(ti), N)
			for j0 := 0; j0 < N; j0 += int(tj) {
				j1 := minInt(j0+int(tj), N)
				for i := i0; i < i1; i++ {
					ax, ay, az := 0.0, 0.0, 0.0
					for j := j0; j < j1; j++ {
						dx := px[j] - px[i]
						dy := py[j] - py[i]
						dz := pz[j] - pz[i]
						d2 := dx*dx + dy*dy + dz*dz + 1e-9
						inv := mass[j] / (d2 * math.Sqrt(d2))
						ax += dx * inv
						ay += dy * inv
						az += dz * inv
					}
					fx[i] += ax
					fy[i] += ay
					fz[i] += az
				}
			}
		}
	})
	return checksum(fx) + checksum(fy) + checksum(fz), nil
}
