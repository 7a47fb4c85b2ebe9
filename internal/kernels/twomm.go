package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

func init() {
	register(&Kernel{
		Name:       "2mm",
		Complexity: Complexity{Compute: "O(N^3)", Memory: "O(N^2)"},
		DefaultN:   1024,
		BenchN:     192,
		TileDims:   3,
		IR:         twoMMProgram,
		Model:      twommModel(),
		Run:        runTwoMM,
		Extension:  true, // beyond the paper's kernel set
	})
}

// twoMMProgram builds the PolyBench-style 2mm kernel: D = A·B followed
// by E = D·C — a natural two-region program whose regions the
// framework can tune simultaneously.
func twoMMProgram(n int64) *ir.Program {
	mk := func(out, in1, in2, label string) *ir.Loop {
		stmt := &ir.Stmt{
			Label:  label,
			Writes: []ir.Access{{Array: out, Indices: []ir.Affine{ir.Var("i" + label), ir.Var("j" + label)}}},
			Reads: []ir.Access{
				{Array: out, Indices: []ir.Affine{ir.Var("i" + label), ir.Var("j" + label)}},
				{Array: in1, Indices: []ir.Affine{ir.Var("i" + label), ir.Var("k" + label)}},
				{Array: in2, Indices: []ir.Affine{ir.Var("k" + label), ir.Var("j" + label)}},
			},
			Flops: 2,
		}
		kl := &ir.Loop{Var: "k" + label, Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{stmt}}
		jl := &ir.Loop{Var: "j" + label, Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{kl}}
		return &ir.Loop{Var: "i" + label, Lo: ir.Con(0), Hi: ir.Con(n), Step: 1, Body: []ir.Node{jl}}
	}
	return &ir.Program{
		Name: "2mm",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "C", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "D", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "E", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []ir.Node{
			mk("D", "A", "B", "1"),
			mk("E", "D", "C", "2"),
		},
	}
}

// twommModel treats the kernel as two back-to-back matrix multiplies
// sharing one tiling configuration: the costs are mm's doubled, with
// the intermediate D adding one array of traffic and footprint.
func twommModel() *perfmodel.KernelModel {
	mm := mmModel()
	return &perfmodel.KernelModel{
		Name:     "2mm",
		TileDims: 3,
		Flops:    func(n int64) float64 { return 2 * mm.Flops(n) },
		Accesses: func(n int64) float64 { return 2 * mm.Accesses(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			return mm.WorkingSet(n, t)
		},
		LevelTraffic: func(n int64, t []int64, c perfmodel.Capacity) float64 {
			return 2 * mm.LevelTraffic(n, t, c)
		},
		ParIters:  mm.ParIters,
		InnerTrip: mm.InnerTrip,
		TotalData: func(n int64) int64 { return 5 * 8 * n * n },
	}
}

// runTwoMM executes the real tiled parallel 2mm: E = (A·B)·C with one
// shared tiling/thread configuration for both stages.
func runTwoMM(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("2mm", 3, 1, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj, tk := clip(tiles[0], n), clip(tiles[1], n), clip(tiles[2], n)
	N := int(n)
	A := make([]float64, N*N)
	B := make([]float64, N*N)
	C := make([]float64, N*N)
	D := make([]float64, N*N)
	E := make([]float64, N*N)
	for i := range A {
		A[i] = float64(i%13) * 0.25
		B[i] = float64(i%7) * 0.5
		C[i] = float64(i%5) * 0.75
	}
	nti, ntj := int(ceilDiv(n, ti)), int(ceilDiv(n, tj))
	stage := func(dst, src1, src2 []float64) {
		parallelBlocks(nti*ntj, threads, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				i0 := (it / ntj) * int(ti)
				j0 := (it % ntj) * int(tj)
				i1, j1 := minInt(i0+int(ti), N), minInt(j0+int(tj), N)
				for k0 := 0; k0 < N; k0 += int(tk) {
					k1 := minInt(k0+int(tk), N)
					for i := i0; i < i1; i++ {
						for j := j0; j < j1; j++ {
							sum := dst[i*N+j]
							for k := k0; k < k1; k++ {
								sum += src1[i*N+k] * src2[k*N+j]
							}
							dst[i*N+j] = sum
						}
					}
				}
			}
		})
	}
	stage(D, A, B)
	stage(E, D, C)
	return checksum(E), nil
}
