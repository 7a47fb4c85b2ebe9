package kernels

import (
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

// jacobiSweeps is the number of time steps a jacobi-2d run performs.
const jacobiSweeps = 20

func init() {
	register(&Kernel{
		Name:       "jacobi-2d",
		Complexity: Complexity{Compute: "O(N^2)", Memory: "O(N^2)"},
		DefaultN:   4096,
		BenchN:     512,
		TileDims:   2,
		IR:         jacobi2DProgram,
		Model:      jacobi2dModel(),
		Run:        runJacobi2D,
	})
}

// jacobi2DProgram builds one sweep of the two-array 5-point Jacobi
// stencil: B[i][j] = 0.2*(A[i][j] + A[i±1][j] + A[i][j±1]).
func jacobi2DProgram(n int64) *ir.Program {
	rd := func(di, dj int64) ir.Access {
		return ir.Access{Array: "A", Indices: []ir.Affine{
			ir.Var("i").AddConst(di), ir.Var("j").AddConst(dj),
		}}
	}
	stmt := &ir.Stmt{
		Label:  "B[i][j] = avg5(A)",
		Writes: []ir.Access{{Array: "B", Indices: []ir.Affine{ir.Var("i"), ir.Var("j")}}},
		Reads:  []ir.Access{rd(0, 0), rd(-1, 0), rd(1, 0), rd(0, -1), rd(0, 1)},
		Flops:  5,
	}
	jl := &ir.Loop{Var: "j", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{stmt}}
	il := &ir.Loop{Var: "i", Lo: ir.Con(1), Hi: ir.Con(n - 1), Step: 1, Body: []ir.Node{jl}}
	return &ir.Program{
		Name: "jacobi-2d",
		Arrays: []ir.Array{
			{Name: "A", ElemBytes: 8, Dims: []int64{n, n}},
			{Name: "B", ElemBytes: 8, Dims: []int64{n, n}},
		},
		Root: []ir.Node{il},
	}
}

func jacobi2dModel() *perfmodel.KernelModel {
	T := float64(jacobiSweeps)
	return &perfmodel.KernelModel{
		Name:     "jacobi-2d",
		TileDims: 2,
		Flops:    func(n int64) float64 { return 5 * T * float64(n) * float64(n) },
		Accesses: func(n int64) float64 { return 6 * T * float64(n) * float64(n) },
		WorkingSet: func(n int64, t []int64) int64 {
			ti, tj := clip(t[0], n), clip(t[1], n)
			return 8 * ((ti+2)*(tj+2) + ti*tj)
		},
		LevelTraffic: jacobi2dLevelTraffic,
		ParIters: func(n int64, t []int64) int64 {
			return ceilDiv(n, clip(t[0], n)) * ceilDiv(n, clip(t[1], n))
		},
		InnerTrip: func(n int64, t []int64) float64 { return float64(clip(t[1], n)) },
		TotalData: func(n int64) int64 { return 2 * 8 * n * n },
	}
}

// jacobi2dLevelTraffic: reuse tiers for the 5-point two-array sweep.
// With the tile resident, each sweep moves the tile working set once
// per tile visit (halo rows refetched between vertically adjacent
// tiles). With only three source rows of the tile width resident the
// vertical reuse inside the tile survives and the traffic is near
// compulsory; losing the rows costs a threefold refetch of the source
// grid; a level that cannot even hold a handful of cache lines per
// stream degenerates to line-per-access behaviour.
func jacobi2dLevelTraffic(n int64, t []int64, c perfmodel.Capacity) float64 {
	ti, tj := clip(t[0], n), clip(t[1], n)
	cap := c.PerThread
	T := float64(jacobiSweeps)
	n2 := 8 * float64(n) * float64(n)
	rows := 8 * 4 * (tj + 2) // 3 source rows + 1 destination row of tile width
	wsTile := 8 * ((ti+2)*(tj+2) + ti*tj)
	if cap < 8*4*8 {
		// Cannot hold even a few lines per stream: line per access.
		return T * 8 * 6 * n2
	}
	if cap < rows {
		// Row reuse lost: three read streams plus the write stream.
		return T * 4 * n2
	}
	// Rows resident: vertical in-tile reuse works but horizontal halo
	// columns are refetched; near-compulsory with the halo overhead of
	// narrow tiles.
	overhead := float64(tj+2) / float64(tj)
	rowTraffic := T * 2 * n2 * overhead
	if cap < wsTile {
		return rowTraffic
	}
	// Tile resident: per-visit tile working set — never worse than the
	// row-resident pattern the same cache could fall back to.
	tiles := float64(ceilDiv(n, ti) * ceilDiv(n, tj))
	tileTraffic := T * tiles * 8 * float64((ti+2)*(tj+2)+ti*tj)
	if tileTraffic < rowTraffic {
		return tileTraffic
	}
	return rowTraffic
}

// runJacobi2D executes the real tiled parallel Jacobi sweep,
// alternating the role of the two arrays each time step.
func runJacobi2D(n int64, tiles []int64, threads int) (float64, error) {
	if err := checkRun("jacobi-2d", 2, 3, n, tiles, threads); err != nil {
		return 0, err
	}
	ti, tj := clip(tiles[0], n), clip(tiles[1], n)
	N := int(n)
	A := make([]float64, N*N)
	B := make([]float64, N*N)
	for i := range A {
		A[i] = float64(i % 17)
	}
	src, dst := A, B
	inner := N - 2
	nti, ntj := int(ceilDiv(int64(inner), ti)), int(ceilDiv(int64(inner), tj))
	for sweep := 0; sweep < jacobiSweeps; sweep++ {
		parallelBlocks(nti*ntj, threads, func(lo, hi int) {
			for it := lo; it < hi; it++ {
				i0 := 1 + (it/ntj)*int(ti)
				j0 := 1 + (it%ntj)*int(tj)
				i1, j1 := minInt(i0+int(ti), N-1), minInt(j0+int(tj), N-1)
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						dst[i*N+j] = 0.2 * (src[i*N+j] + src[(i-1)*N+j] + src[(i+1)*N+j] +
							src[i*N+j-1] + src[i*N+j+1])
					}
				}
			}
		})
		src, dst = dst, src
	}
	return checksum(src), nil
}
