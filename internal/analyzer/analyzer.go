// Package analyzer implements the code-analyzer stage of the framework
// (label 1-2 in the paper's Fig. 3): it decomposes a MiniIR program
// into tunable regions, runs the polyhedral dependence tests to find
// the largest tilable loop band and the legality of collapsing, and
// synthesizes a transformation skeleton with its parameter space for
// each region.
//
// Mirroring the paper's implementation section: "The Analyzer searches
// for nested loops and performs a dependency test (based on the
// polyhedral model) to determine the largest subset of loops which can
// be tiled and optionally collapsed, without sacrificing the
// possibility of parallelizing the resulting loop."
package analyzer

import (
	"fmt"

	"autotune/internal/ir"
	"autotune/internal/polyhedral"
	"autotune/internal/skeleton"
)

// Region is one tunable code region: a perfect loop nest with its
// legality analysis and the synthesized skeleton.
type Region struct {
	// ID is the index of the region within the program.
	ID int
	// RootIndex is the position of the region's nest within the
	// analyzed program's top-level statement list.
	RootIndex int
	// Root is the loop nest (a node of the analyzed program).
	Root *ir.Loop
	// Loops is the perfect nest, outermost first.
	Loops []*ir.Loop
	// Band is the depth of the outermost fully permutable (tilable)
	// band.
	Band int
	// Collapsible reports whether the two outermost loops may be
	// collapsed before parallelization.
	Collapsible bool
	// MaxTile is the derived upper bound for tile-size parameters
	// (the paper uses N/2).
	MaxTile int64
	// Skeleton is the synthesized transformation skeleton; its
	// parameter layout is [t_1 .. t_Band, threads].
	Skeleton *skeleton.Skeleton
}

// Options configures the analysis.
type Options struct {
	// MaxThreads bounds the thread-count parameter (the number of
	// cores of the target machine).
	MaxThreads int
}

// minTripCount is the outermost trip count below which a nest is not
// worth parallelizing and is skipped.
const minTripCount = 4

// Analyze decomposes the program into tunable regions. Nests whose
// outermost loop cannot be parallelized (directly or after tiling) are
// skipped — they are not tunable by this framework.
func Analyze(p *ir.Program, opt Options) ([]Region, error) {
	if opt.MaxThreads < 1 {
		return nil, fmt.Errorf("analyzer: MaxThreads must be >= 1")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("analyzer: %w", err)
	}
	var regions []Region
	for rootIdx, n := range p.Root {
		root, ok := n.(*ir.Loop)
		if !ok {
			continue
		}
		loops, stmts := ir.PerfectNest(root)
		if len(loops) == 0 || len(stmts) == 0 {
			continue
		}
		if loops[0].TripCount(map[string]int64{}) < minTripCount {
			continue
		}
		deps := polyhedral.Analyze(loops, stmts)
		if !polyhedral.ParallelLoop(deps, 0) {
			// The outermost loop carries a dependence; tiling cannot
			// restore outer parallelism under this skeleton.
			continue
		}
		band := polyhedral.MaxTilableBand(deps, len(loops))
		if band == 0 {
			continue
		}
		collapsible := polyhedral.CollapsibleLoops(loops, deps, 0)
		maxTile := loops[0].TripCount(map[string]int64{}) / 2
		if maxTile < 1 {
			maxTile = 1
		}
		id := len(regions)
		sk := skeleton.TiledParallel(
			fmt.Sprintf("%s#%d", p.Name, id),
			band, maxTile, opt.MaxThreads, collapsible,
		)
		regions = append(regions, Region{
			ID:          id,
			RootIndex:   rootIdx,
			Root:        root,
			Loops:       loops,
			Band:        band,
			Collapsible: collapsible,
			MaxTile:     maxTile,
			Skeleton:    sk,
		})
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("analyzer: no tunable regions in %s", p.Name)
	}
	return regions, nil
}

// Outline extracts the region into a standalone single-nest program —
// the paper's backend step of "outlining the selected regions into
// functions" before multi-versioning. The transformations in
// internal/transform target a program's first top-level nest, so
// multi-region programs must outline before instantiating. The result
// is a new program header over p's own nodes and arrays: a MiniIR
// program is never written once built, so nothing is copied.
func (r *Region) Outline(p *ir.Program) *ir.Program {
	out := &ir.Program{Name: fmt.Sprintf("%s.region%d", p.Name, r.ID), Arrays: p.Arrays, Root: p.Root}
	if r.RootIndex >= 0 && r.RootIndex < len(p.Root) {
		out.Root = []ir.Node{p.Root[r.RootIndex]}
	}
	return out
}
