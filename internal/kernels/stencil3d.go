package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

// stencilSweeps is the number of time steps a 3d-stencil run performs.
const stencilSweeps = 4

func init() {
	register(&Kernel{
		Name:       "3d-stencil",
		Complexity: Complexity{Compute: "O(N^3)", Memory: "O(N^3)"},
		DefaultN:   384,
		BenchN:     96,
		TileDims:   3,
		IR:         stencil3DProgram,
		Model:      stencil3dModel(),
		Run:        runStencil3D,
	})
}

// stencil3DProgram builds one sweep of a generic 3x3x3 stencil over a
// cubic grid: B[i][j][k] = f(27 neighbours of A).
func stencil3DProgram(n int64) *ir.Program {
	// The 84 indices share three term slices: AddConst shares its
	// receiver's.
	i, j, k := ir.Var("i"), ir.Var("j"), ir.Var("k")
	reads := make([]ir.Access, 0, 27)
	for di := int64(-1); di <= 1; di++ {
		for dj := int64(-1); dj <= 1; dj++ {
			for dk := int64(-1); dk <= 1; dk++ {
				reads = append(reads, ir.Access{Array: "A", Indices: []ir.Affine{
					i.AddConst(di), j.AddConst(dj), k.AddConst(dk),
				}})
			}
		}
	}
	stmt := &ir.Stmt{
		Label:  "B[i][j][k] = avg27(A)",
		Writes: []ir.Access{{Array: "B", Indices: []ir.Affine{i, j, k}}},
		Reads:  reads,
		Flops:  27,
	}
	kl := &ir.Loop{Var: "k", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{stmt}}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{kl}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "3d-stencil",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n, n}},
		},
		Root: []ir.Node{il},
	}
}

func stencil3dModel() *perfmodel.KernelModel {
	T := float64(stencilSweeps)
	return &perfmodel.KernelModel{
		Name:     "3d-stencil",
		TileDims: 3,
		Flops: func(n int64) float64 {
			return 30 * T * float64(n) * float64(n) * float64(n)
		},
		Accesses: func(n int64) float64 {
			return 28 * T * float64(n) * float64(n) * float64(n)
		},
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
			return 8 * ((ti+2)*(tj+2)*(tk+2) + ti*tj*tk)
		},
		LevelTraffic: stencil3dLevelTraffic,
		ParIters: func(n int64, t []int64) int64 {
			return ceilDiv(n, clip(t[0], n)) * ceilDiv(n, clip(t[1], n))
		},
		InnerTrip: func(n int64, t []int64) float64 { return float64(clip(t[2], n)) },
		TotalData: func(n int64) int64 { return 2 * 8 * n * n * n },
	}
}

// stencil3dLevelTraffic: reuse tiers for the 27-point two-array sweep.
// Plane reuse (three source planes of the tile cross-section resident)
// brings traffic near compulsory; with only rows resident each plane is
// refetched three times; below that the nine row streams all refetch.
func stencil3dLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj, tk := clip(t[0], n), clip(t[1], n), clip(t[2], n)
	cap := c.PerThread
	T := float64(stencilSweeps)
	n3 := 8 * float64(n) * float64(n) * float64(n)
	rows := 8 * (3*3*(tk+2) + tk) // 3x3 source rows + destination row
	planes := 8 * (3*(tj+2)*(tk+2) + tj*tk)
	wsTile := 8 * ((ti+2)*(tj+2)*(tk+2) + ti*tj*tk)
	if cap < 8*10*8 {
		return T * 8 * 28 * n3 / 8 // line per access on all streams
	}
	if cap < rows {
		// Row reuse lost: nine read streams plus the write stream.
		return T * 10 * n3
	}
	if cap < planes {
		// Rows resident, planes not: each source plane read three
		// times (as k-1, k, k+1 neighbour), plus the write stream.
		return T * 4 * n3
	}
	// Planes resident: near-compulsory with 3-D halo overhead.
	overheadJ := float64(tj+2) / float64(tj)
	overheadK := float64(tk+2) / float64(tk)
	planeTraffic := T * 2 * n3 * overheadJ * overheadK
	if cap < wsTile {
		return planeTraffic
	}
	tiles := float64(ceilDiv(n, ti) * ceilDiv(n, tj) * ceilDiv(n, tk))
	tileTraffic := T * tiles * 8 * float64((ti+2)*(tj+2)*(tk+2)+ti*tj*tk)
	if tileTraffic < planeTraffic {
		return tileTraffic
	}
	return planeTraffic
}

// runStencil3D executes the real tiled parallel 27-point stencil.
func runStencil3D(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("3d-stencil", 3, 3, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj, tk := clip(tiles[0], n), clip(tiles[1], n), clip(tiles[2], n)
	N := int(n)
	A := make([]float64, N*N*N)
	B := make([]float64, N*N*N)
	for i := range A {
		A[i] = float64(i % 23)
	}
	src, dst := A, B
	inner := N - 2
	nti, ntj := int(ceilDiv(int64(inner), ti)), int(ceilDiv(int64(inner), tj))
	idx := func(i, j, k int) int { return (i*N+j)*N + k }
	for sweep := 0; sweep < stencilSweeps; sweep++ {
		parallelBlocks(nti*ntj, threads, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				i0 := 1 + (it/ntj)*int(ti)
				j0 := 1 + (it%ntj)*int(tj)
				i1, j1 := minInt(i0+int(ti), N-1), minInt(j0+int(tj), N-1)
				for k0 := 1; k0 < N-1; k0 += int(tk) {
					k1 := minInt(k0+int(tk), N-1)
					for i := i0; i < i1; i++ {
						for j := j0; j < j1; j++ {
							for k := k0; k < k1; k++ {
								s := 0.0
								for di := -1; di <= 1; di++ {
									for dj := -1; dj <= 1; dj++ {
										for dk := -1; dk <= 1; dk++ {
											s += src[idx(i+di, j+dj, k+dk)]
										}
									}
								}
								dst[idx(i, j, k)] = s / 27
							}
						}
					}
				}
			}
		})
		src, dst = dst, src
	}
	return checksum(src), nil
}
