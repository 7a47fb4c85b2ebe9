package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

func init() {
	register(&Kernel{
		Name:       "atax",
		Complexity: Complexity{Compute: "O(N^2)", Memory: "O(N^2)"},
		DefaultN:   4096,
		BenchN:     512,
		TileDims:   2,
		IR:         ataxProgram,
		Model:      ataxModel(),
		Run:        runAtax,
		Extension:  true,
	})
}

// ataxProgram builds the PolyBench atax kernel's first stage
// w = A·x as the tunable region (the second stage y = Aᵀ·w has the
// mirrored structure; both stages appear in the program so multi-region
// tuning sees two distinct nests).
func ataxProgram(n int64) *ir.Program {
	stage1 := &ir.Stmt{
		Label:  "w[i] += A[i][j]*x[j]",
		Writes: []ir.Access{{Array: "w", Indices: []ir.Affine{ir.Var("i")}}},
		Reads: []ir.Access{
			{Array: "w", Indices: []ir.Affine{ir.Var("i")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}},
			{Array: "x", Indices: []ir.Affine{ir.Var("j")}},
		},
		Flops: 2,
	}
	j1 := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stage1}}
	i1 := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{j1}}

	stage2 := &ir.Stmt{
		Label:  "y[p] += A[q][p]*w[q]",
		Writes: []ir.Access{{Array: "y", Indices: []ir.Affine{ir.Var("p")}}},
		Reads: []ir.Access{
			{Array: "y", Indices: []ir.Affine{ir.Var("p")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("q"), ir.Var("p")}},
			{Array: "w", Indices: []ir.Affine{ir.Var("q")}},
		},
		Flops: 2,
	}
	q2 := &ir.Loop{Var: "q", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stage2}}
	p2 := &ir.Loop{Var: "p", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{q2}}

	return &ir.Program{
		Name: "atax",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "x", ElemBytes: 8, Dims: []int64{n}},
			{Name: "w", ElemBytes: 8, Dims: []int64{n}},
			{Name: "y", ElemBytes: 8, Dims: []int64{n}},
		},
		Root: []ir.Node{i1, p2},
	}
}

func ataxModel() *perfmodel.KernelModel {
	return &perfmodel.KernelModel{
		Name:     "atax",
		TileDims: 2,
		// Both stages: 2 × 2N² flops.
		Flops:    func(n int64) float64 { return 4 * float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 8 * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj := clip(t[0], n), clip(t[1], n)
			// A tile + x slice + w slice.
			return 8 * (ti*tj + tj + ti)
		},
		LevelTraffic: ataxLevelTraffic,
		ParIters:     func(n int64, t []int64) int64 { return ceilDiv(n, clip(t[0], n)) },
		InnerTrip:    func(n int64, t []int64) float64 { return float64(clip(t[1], n)) },
		TotalData:    func(n int64) int64 { return 8 * (n*n + 3*n) },
	}
}

// ataxLevelTraffic: the matrix A streams once per stage (no reuse —
// the defining property of BLAS-2), so traffic is near-compulsory for
// A; the vectors x and w are reused across rows and need residency.
// When the x slice falls out of the cache, it is refetched per row.
func ataxLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj := clip(t[0], n), clip(t[1], n)
	nf := float64(n)
	aBytes := 2 * 8 * nf * nf // both stages stream A once
	vecSlice := 8 * tj
	if c.PerThread >= 8*n {
		// Whole vector resident: compulsory vector traffic.
		return aBytes + 6*8*nf
	}
	if c.PerThread >= vecSlice+8*ti {
		// The x slice persists across the rows of one tile: refetched
		// once per row-tile.
		return aBytes + float64(ceilDiv(n, ti))*8*nf
	}
	// Vector slice thrashes: refetched for every row.
	return aBytes + nf*8*nf
}

// runAtax executes both stages with tiling (ti rows per parallel block,
// tj-wide dot-product blocking).
func runAtax(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("atax", 2, 1, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj := clip(tiles[0], n), clip(tiles[1], n)
	N := int(n)
	A := make([]float64, N*N)
	x := make([]float64, N)
	w := make([]float64, N)
	y := make([]float64, N)
	for i := range A {
		A[i] = float64(i%9) * 0.125
	}
	for i := range x {
		x[i] = float64(i%11) * 0.25
	}
	parallelRows := func(body func(i int)) {
		parallelBlocks(int(ceilDiv(n, ti)), threads, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				i0 := b * int(ti)
				i1 := minInt(i0+int(ti), N)
				for i := i0; i < i1; i++ {
					body(i)
				}
			}
		})
	}
	// Stage 1: w = A·x.
	parallelRows(func(i int) {
		sum := 0.0
		for j0 := 0; j0 < N; j0 += int(tj) {
			j1 := minInt(j0+int(tj), N)
			for j := j0; j < j1; j++ {
				sum += A[i*N+j] * x[j]
			}
		}
		w[i] = sum
	})
	// Stage 2: y = Aᵀ·w, parallel over output elements p.
	parallelRows(func(p int) {
		sum := 0.0
		for q0 := 0; q0 < N; q0 += int(tj) {
			q1 := minInt(q0+int(tj), N)
			for q := q0; q < q1; q++ {
				sum += A[q*N+p] * w[q]
			}
		}
		y[p] = sum
	})
	return checksum(y), nil
}
