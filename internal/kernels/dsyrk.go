package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

func init() {
	register(&Kernel{
		Name:       "dsyrk",
		Complexity: Complexity{Compute: "O(N^3)", Memory: "O(N^2)"},
		DefaultN:   1400,
		BenchN:     256,
		TileDims:   3,
		IR:         dsyrkProgram,
		Model:      dsyrkModel(),
		Run:        runDsyrk,
	})
}

// dsyrkProgram builds the BLAS-3 symmetric rank-k update
// B[i][j] += A[i][k] * A[j][k] (the on-the-fly transposition of the
// second operand keeps both streams row-aligned, unlike mm).
func dsyrkProgram(n int64) *ir.Program {
	stmt := &ir.Stmt{
		Label:  "B[i][j] += A[i][k]*A[j][k]",
		Writes: []ir.Access{{Array: "B", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads: []ir.Access{
			{Array: "B", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("k")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("j"), ir.Var("k")}},
		},
		Flops: 2,
	}
	kl := &ir.Loop{Var: "k", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{kl}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "dsyrk",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []ir.Node{il},
	}
}

func dsyrkModel() *perfmodel.KernelModel {
	return &perfmodel.KernelModel{
		Name:     "dsyrk",
		TileDims: 3,
		Flops:    func(n int64) float64 { return 2 * float64(n) * float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 4 * float64(n) * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
			return 8 * (ti*tk + tj*tk + ti*tj)
		},
		LevelTraffic: dsyrkLevelTraffic,
		ParIters: func(n int64, t []int64) int64 {
			return ceilDiv(n, clip(t[0], n)) * ceilDiv(n, clip(t[1], n))
		},
		InnerTrip: func(n int64, t []int64) float64 { return float64(clip(t[2], n)) },
		TotalData: func(n int64) int64 { return 2 * 8 * n * n },
	}
}

// dsyrkLevelTraffic mirrors mmLevelTraffic with the crucial difference
// that the second operand A[j][k] is row-aligned (the on-the-fly
// transposition): losing the inner sub-tile costs a unit-stride
// restream (8·N³ bytes) and even the untiled fallback stays line-grain
// rather than paying a full line per scalar access as mm's column walk
// does.
func dsyrkLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
	cap := c.PerThread
	n2 := 8 * float64(n) * float64(n)
	n3 := n2 * float64(n)
	slices := 8 * (2*tk + 2*tj)
	wsInner := 8*tj*tk + slices // A[j-tile][k-slice] block + slices
	if cap < slices {
		// Row-aligned streams: both A walks stay line-grain.
		return 2*n3 + 2*n2
	}
	if cap < wsInner {
		// The A[j] block is refetched for every i.
		return n3 + float64(ceilDiv(n, tj))*n2 + 2*float64(ceilDiv(n, tk))*n2
	}
	aLeft := float64(ceilDiv(n, tj)) * n2 // A row panel (ti×N) per j_t
	if 8*ti*n+wsInner <= cap {
		aLeft = n2
	}
	aRight := float64(ceilDiv(n, ti)) * n2 // A (as transposed) per i_t
	if int64(n2)+wsInner <= cap {
		aRight = n2
	}
	bTerm := 2 * float64(ceilDiv(n, tk)) * n2 // B block per k_t
	if 8*ti*tj+wsInner <= cap {
		bTerm = 2 * n2
	}
	return aLeft + aRight + bTerm
}

// runDsyrk executes the real tiled parallel rank-k update.
func runDsyrk(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("dsyrk", 3, 1, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj, tk := clip(tiles[0], n), clip(tiles[1], n), clip(tiles[2], n)
	N := int(n)
	A := make([]float64, N*N)
	B := make([]float64, N*N)
	for i := range A {
		A[i] = float64(i%11) * 0.125
	}
	nti, ntj := int(ceilDiv(n, ti)), int(ceilDiv(n, tj))
	parallelBlocks(nti*ntj, threads, func(lo, hi int) {
		for it := lo; it < hi; it++ {
			i0 := (it / ntj) * int(ti)
			j0 := (it % ntj) * int(tj)
			i1, j1 := minInt(i0+int(ti), N), minInt(j0+int(tj), N)
			for k0 := 0; k0 < N; k0 += int(tk) {
				k1 := minInt(k0+int(tk), N)
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						sum := B[i*N+j]
						for k := k0; k < k1; k++ {
							sum += A[i*N+k] * A[j*N+k]
						}
						B[i*N+j] = sum
					}
				}
			}
		}
	})
	return checksum(B), nil
}
