// Package kernels provides the five benchmark kernels of the paper's
// evaluation (mm, dsyrk, jacobi-2d, 3d-stencil, n-body), each in three
// coupled representations:
//
//  1. a MiniIR program for the analyzer/transformation pipeline,
//  2. an analytical KernelModel consumed by the simulated evaluator
//     (internal/perfmodel), and
//  3. a real, goroutine-parallel tiled Go implementation for measured
//     tuning and the runnable examples.
//
// Table IV of the paper (computation/memory complexity per kernel) is
// carried as metadata on each kernel.
package kernels

import (
	"fmt"
	"sort"
	"sync"

	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

// Complexity mirrors one row of the paper's Table IV.
type Complexity struct {
	Compute string // e.g. "O(N^3)"
	Memory  string // e.g. "O(N^2)"
}

// Runner executes the kernel once with the given problem size, tile
// sizes and thread count, returning a checksum for validation.
type Runner func(n int64, tiles []int64, threads int) (float64, error)

// Kernel bundles all representations of one benchmark.
type Kernel struct {
	Name       string
	Complexity Complexity
	// DefaultN is the problem size used throughout the paper-style
	// evaluation.
	DefaultN int64
	// BenchN is a smaller problem size for quick measured runs and CI.
	BenchN int64
	// TileDims is the number of tile-size parameters.
	TileDims int
	// IR builds the kernel's MiniIR program.
	IR func(n int64) *ir.Program
	// Model is the analytical performance model.
	Model *perfmodel.KernelModel
	// Run executes the real Go implementation.
	Run Runner
	// Extension marks kernels beyond the paper's evaluation set; the
	// paper-reproduction experiments skip them.
	Extension bool
}

var registry = map[string]*Kernel{}

func register(k *Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("kernels: duplicate kernel " + k.Name)
	}
	registry[k.Name] = k
}

// ByName returns a registered kernel.
func ByName(name string) (*Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
	}
	return k, nil
}

// Names lists all registered kernels in stable order.
func Names() []string {
	var names []string
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all kernels in stable name order.
func All() []*Kernel {
	var out []*Kernel
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// Paper returns the five kernels of the paper's evaluation (extensions
// excluded), in stable name order.
func Paper() []*Kernel {
	var out []*Kernel
	for _, k := range All() {
		if !k.Extension {
			out = append(out, k)
		}
	}
	return out
}

// checkRun refuses what no runner can execute: a tile count other than
// the kernel's dims, a problem size below minN, or fewer than one
// thread.
func checkRun(name string, dims int, minN, n int64, tiles []int64, threads int) error {
	if len(tiles) != dims {
		return fmt.Errorf("%s: want %d tile sizes, got %d", name, dims, len(tiles))
	}
	if n < minN || threads < 1 {
		return fmt.Errorf("%s: invalid n=%d threads=%d", name, n, threads)
	}
	return nil
}

// parallelBlocks is a runner's parallel loop: it splits the blocks
// [0, total) into threads contiguous ranges, as an OpenMP static
// schedule does, runs body on each non-empty range in a goroutine of
// its own and waits for them all.
func parallelBlocks(total, threads int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		lo, hi := t*total/threads, (t+1)*total/threads
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// clip bounds a tile size to [1, n].
func clip(t, n int64) int64 {
	if t < 1 {
		return 1
	}
	if t > n {
		return n
	}
	return t
}
