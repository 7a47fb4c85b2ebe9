package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

func init() {
	register(&Kernel{
		Name:       "mm",
		Complexity: Complexity{Compute: "O(N^3)", Memory: "O(N^2)"},
		DefaultN:   1400,
		BenchN:     256,
		TileDims:   3,
		IR:         mmProgram,
		Model:      mmModel(),
		Run:        runMM,
	})
}

// mmProgram builds the paper's Fig. 7 matrix-multiplication kernel in
// IJK order: C[i][j] += A[i][k] * B[k][j].
func mmProgram(n int64) *ir.Program {
	stmt := &ir.Stmt{
		Label:  "C[i][j] += A[i][k]*B[k][j]",
		Writes: []ir.Access{{Array: "C", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads: []ir.Access{
			{Array: "C", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}},
			{Array: "A", Indices: []ir.Affine{ir.Var("i"), ir.Var("k")}},
			{Array: "B", Indices: []ir.Affine{ir.Var("k"), ir.Var("j")}},
		},
		Flops: 2,
	}
	kl := &ir.Loop{Var: "k", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{kl}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "mm",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "C", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []ir.Node{il},
	}
}

func mmModel() *perfmodel.KernelModel {
	return &perfmodel.KernelModel{
		Name:     "mm",
		TileDims: 3,
		Flops:    func(n int64) float64 { return 2 * float64(n) * float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 4 * float64(n) * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
			return 8 * (ti*tk + tk*tj + ti*tj)
		},
		LevelTraffic: mmLevelTraffic,
		ParIters: func(n int64, t []int64) int64 {
			return ceilDiv(n, clip(t[0], n)) * ceilDiv(n, clip(t[1], n))
		},
		InnerTrip: func(n int64, t []int64) float64 { return float64(clip(t[2], n)) },
		TotalData: func(n int64) int64 { return 3 * 8 * n * n },
	}
}

// mmLevelTraffic performs the reuse-distance analysis for tiled IJK
// matrix multiply with tile loops (i_t, j_t, k_t) outside point loops
// (i, j, k). Reuse patterns, innermost outward:
//
//   - The inner (i, j, k) point loops reuse the B sub-tile (tk×tj)
//     across i, the A row slice (tk) across j, and the C element
//     across k. If the level cannot hold that inner working set, B is
//     refetched for every i — an 8·N³ stream; without even the row
//     slices the untiled IJK pathology appears: B pulls a full cache
//     line per scalar access (64·N³ bytes).
//   - Across tile visits: A's row panel (ti×N) is reused over j_t, the
//     whole B over i_t, and the C block (ti×tj) over k_t; each such
//     structure staying resident removes that operand's refetch
//     factor.
func mmLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
	cap := c.PerThread
	n2 := 8 * float64(n) * float64(n)
	n3 := n2 * float64(n)
	slices := 8 * (2*tk + 2*tj) // A row slice, C row slice, margins
	wsInner := 8*tk*tj + slices
	if cap < slices {
		// Untiled pathology: B misses a full line per access.
		return 8*n3 + n3/8 + 2*n2
	}
	if cap < wsInner {
		// B sub-tile refetched for every i.
		return n3 + float64(ceilDiv(n, tj))*n2 + 2*float64(ceilDiv(n, tk))*n2
	}
	aTerm := float64(ceilDiv(n, tj)) * n2
	if 8*ti*n+wsInner <= cap {
		aTerm = n2 // A row panel persists across j_t
	}
	bTerm := float64(ceilDiv(n, ti)) * n2
	if int64(n2)+wsInner <= cap {
		bTerm = n2 // whole B persists across i_t
	}
	cTerm := 2 * float64(ceilDiv(n, tk)) * n2
	if 8*ti*tj+wsInner <= cap {
		cTerm = 2 * n2 // C block persists across k_t
	}
	return aTerm + bTerm + cTerm
}

// runMM executes the real tiled, collapsed, parallel matrix multiply.
// tiles = (ti, tj, tk). It returns a checksum of C for validation.
func runMM(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("mm", 3, 1, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj, tk := clip(tiles[0], n), clip(tiles[1], n), clip(tiles[2], n)
	N := int(n)
	A := make([]float64, N*N)
	B := make([]float64, N*N)
	C := make([]float64, N*N)
	for i := range A {
		A[i] = float64(i%13) * 0.25
		B[i] = float64(i%7) * 0.5
	}
	// Collapsed parallel iteration space over (i_t, j_t).
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
						sum := C[i*N+j]
						for k := k0; k < k1; k++ {
							sum += A[i*N+k] * B[k*N+j]
						}
						C[i*N+j] = sum
					}
				}
			}
		}
	})
	return checksum(C), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func checksum(xs []float64) float64 {
	s := 0.0
	for i := 0; i < len(xs); i += 97 {
		s += xs[i]
	}
	return s
}
