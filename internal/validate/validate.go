// Package validate cross-checks the analytical performance model
// (internal/perfmodel) against a trace-driven cache simulator
// (cachesim.go, fed by trace.go): the same tiled kernel configurations
// are (a) lowered to MiniIR, transformed and traced once, every address
// streamed through each machine's simulated cache hierarchy, and (b)
// fed to the kernel's LevelTraffic reuse-distance analysis. The
// per-level byte counts are compared by rank agreement — the model does
// not have to match absolute traffic, but it must order configurations
// the way the simulator does, since the optimizer only consumes the
// ordering.
//
// This is the grounding required by the substitution rule in
// DESIGN.md §2 ("weak cache control → build an honest model and
// validate it").
package validate

import (
	"fmt"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/perfmodel"
	"autotune/internal/transform"
)

// LevelComparison is one cache level's simulated vs modeled traffic
// for one configuration.
type LevelComparison struct {
	SimBytes   float64
	ModelBytes float64
}

// ConfigResult is the comparison for one tile configuration, one
// entry per cache level of the machine.
type ConfigResult struct {
	Levels []LevelComparison
}

// Report is the complete validation result.
type Report struct {
	Kernel  string
	Machine string
	N       int64
	Configs []ConfigResult
	// RankAgreement maps level name to the Kendall tau-a rank
	// correlation between simulated and modeled traffic across the
	// configurations (1 = identical ordering, -1 = inverted).
	RankAgreement map[string]float64
}

// CacheModel traces each tiled configuration of the kernel once,
// streaming every address through each machine's simulated cache
// hierarchy (single-threaded — the reuse structure, not contention, is
// under test), and compares per-level traffic against the kernel's
// LevelTraffic model. It returns one Report per machine, in order.
func CacheModel(k *kernels.Kernel, machines []*machine.Machine, n int64, tileSets [][]int64) ([]*Report, error) {
	if len(tileSets) < 2 {
		return nil, fmt.Errorf("validate: need at least 2 configurations to rank")
	}
	// One hierarchy per machine, emptied before each configuration.
	reports := make([]*Report, len(machines))
	hs := make([]*hierarchy, len(machines))
	for mi, m := range machines {
		reports[mi] = &Report{Kernel: k.Name, Machine: m.Name, N: n, RankAgreement: map[string]float64{}}
		var err error
		if hs[mi], err = newHierarchy(m, 1); err != nil {
			return nil, err
		}
	}
	for _, tiles := range tileSets {
		if len(tiles) != k.TileDims {
			return nil, fmt.Errorf("validate: kernel %s wants %d tile sizes, got %d", k.Name, k.TileDims, len(tiles))
		}
		prog, err := transform.Tile(k.IR(n), tiles)
		if err != nil {
			return nil, err
		}
		for _, h := range hs {
			h.reset()
		}
		err = generate(prog, 1, func(_ int, addr uint64) {
			for _, h := range hs {
				h.access(0, addr)
			}
		})
		if err != nil {
			return nil, err
		}
		// Bytes flowing into level i = misses at level i × line size
		// (each miss installs one line fetched from outside).
		for mi, m := range machines {
			var cr ConfigResult
			for i, lvl := range m.Caches {
				misses := hs[mi].perThread[0][i].stats.misses
				// The model's conflict-miss derating, so both sides see
				// the same effective capacities.
				usable := int64(float64(lvl.SizeBytes) * lvl.UsableFraction())
				cap := perfmodel.Capacity{PerThread: usable, Total: usable, Sharers: 1}
				cr.Levels = append(cr.Levels, LevelComparison{
					SimBytes:   float64(misses) * float64(lvl.LineBytes),
					ModelBytes: k.Model.LevelTraffic(n, tiles, cap),
				})
			}
			reports[mi].Configs = append(reports[mi].Configs, cr)
		}
	}
	for mi, m := range machines {
		for li, lvl := range m.Caches {
			var sim, model []float64
			for _, cr := range reports[mi].Configs {
				sim = append(sim, cr.Levels[li].SimBytes)
				model = append(model, cr.Levels[li].ModelBytes)
			}
			reports[mi].RankAgreement[lvl.Name] = kendallTau(sim, model)
		}
	}
	return reports, nil
}

// tieTolerance is the relative difference below which two traffic
// values count as tied: simulated traffic carries edge effects (halo
// lines, alignment) the model does not represent, so near-equal values
// must not count as ordering disagreements.
const tieTolerance = 0.05

// kendallTau computes the tau-a rank correlation between two equally
// long series with relative tie tolerance; tied pairs count as
// agreement when tied in both.
func kendallTau(a, b []float64) float64 {
	n := len(a)
	if n < 2 {
		return 0
	}
	concordant, discordant, pairs := 0, 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			da := sign(a[j], a[i])
			db := sign(b[j], b[i])
			switch {
			case da == db:
				concordant++
			case da == 0 || db == 0:
				// Tie on one side only: neither concordant nor
				// discordant.
			default:
				discordant++
			}
		}
	}
	return float64(concordant-discordant) / float64(pairs)
}

// sign compares x and y under the relative tie tolerance.
func sign(x, y float64) int {
	diff := x - y
	scale := x
	if y > scale {
		scale = y
	}
	if scale < 0 {
		scale = -scale
	}
	if diff <= tieTolerance*scale && diff >= -tieTolerance*scale {
		return 0
	}
	if diff > 0 {
		return 1
	}
	return -1
}
