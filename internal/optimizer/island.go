// The island model of the evolutionary optimizers (Spec.Islands).
//
// W worker islands evolve independently seeded sub-populations
// concurrently (island i derives its RNG from seed+i) and exchange
// elite individuals every M generations over a synchronous
// unidirectional migration ring (island i donates to island (i+1)%W).
// All islands share one evaluator — typically an
// objective.CachingEvaluator — so a configuration proposed by several
// islands is evaluated once process-wide and the E metric still counts
// distinct successful evaluations globally, keeping search quality per
// evaluation directly comparable to the serial path.
//
// Determinism: island evolution depends only on the island's own RNG,
// its population and the synchronously exchanged migrants; evaluation
// results are deterministic per configuration (the shared cache can
// only change *who* computes a value, never the value). Generations
// run in lockstep with a barrier before every migration, and the final
// fronts are merged in island order and sorted canonically — so a
// fixed (seed, W, M) always yields the same front, bit for bit,
// regardless of scheduling or GOMAXPROCS.
package optimizer

import (
	"fmt"
	"sort"
	"sync"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// IslandOptions configures the island model. Zero values select the
// defaults.
type IslandOptions struct {
	// Islands is the worker-island count W (default 4). One island
	// finds the serial algorithm's points and returns them merged and
	// canonically sorted.
	Islands int
	// MigrationInterval is the number of generations M between
	// synchronous elite migrations (default 5).
	MigrationInterval int
	// Migrants is the number of elite individuals each island donates
	// to its ring successor per migration (default 2). Clamped to half
	// the population size so one migration wave can never replace an
	// entire island.
	Migrants int
}

// withDefaults fills the zero fields and clamps Migrants against the
// effective population size: replaceWorst never displaces more than
// half an island's population, so a larger migrant count would be
// silently ignored there while still poisoning fingerprints and
// snapshot compatibility. popSize <= 0 skips the clamp (unknown
// population, e.g. option-only normalization in tests).
func (o IslandOptions) withDefaults(popSize int) IslandOptions {
	if o.Islands == 0 {
		o.Islands = 4
	}
	if o.MigrationInterval == 0 {
		o.MigrationInterval = 5
	}
	if o.Migrants == 0 {
		o.Migrants = 2
	}
	if popSize > 0 {
		limit := popSize / 2
		if limit < 1 {
			limit = 1
		}
		if o.Migrants > limit {
			o.Migrants = limit
		}
	}
	return o
}

func (o IslandOptions) validate() error {
	if o.Islands < 1 {
		return fmt.Errorf("optimizer: island count %d < 1", o.Islands)
	}
	if o.MigrationInterval < 1 {
		return fmt.Errorf("optimizer: migration interval %d < 1", o.MigrationInterval)
	}
	if o.Migrants < 1 {
		return fmt.Errorf("optimizer: migrant count %d < 1", o.Migrants)
	}
	return nil
}

// islandEvolver is the per-island surface the driver needs. The
// population strategies (gdeIsland, nsga2Island, motpeIsland) implement
// it through their embedded population, the one-shot baselines through
// walker.
type islandEvolver interface {
	// step evolves one generation (trials, shared evaluation, archive
	// update, environmental selection).
	step()
	// done reports whether the island's stagnation rule has fired.
	done() bool
	// elites returns clones of the island's k best successfully
	// evaluated members (fewer when it has fewer), best first.
	elites(k int) []individual
	// inject replaces the island's worst members with migrants.
	inject(migrants []individual)
	// points returns the island's archived front.
	points() []pareto.Point
	// snapshot serializes the island's complete state for
	// checkpointing.
	snapshot() IslandState
}

// spawn runs fn(0..n-1) concurrently and waits for all. A single call
// runs on the caller's goroutine: a serial search pays for no goroutine
// (and no fresh stack to grow) per generation.
func spawn(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// migrateRing synchronously copies each island's elite individuals to
// its ring successor, replacing the successor's worst members. Elites
// are selected before any injection so migration order cannot leak
// freshly injected migrants onward, and both selection and replacement
// are deterministic (rank, then crowding, then index).
func migrateRing(islands []islandEvolver, migrants int) {
	w := len(islands)
	elites := make([][]individual, w)
	for i, isl := range islands {
		elites[i] = isl.elites(migrants)
	}
	for i, isl := range islands {
		donor := elites[(i-1+w)%w]
		if len(donor) > 0 {
			isl.inject(donor)
		}
	}
}

// selectElites clones the k best individuals of a population that have
// successful evaluations. The clones share nothing with pop or the
// arena: they outlive the generation inside another island.
func (a *arena) selectElites(pop []individual, k int) []individual {
	if k > len(pop) {
		k = len(pop)
	}
	out := make([]individual, 0, k)
	for _, idx := range a.orderBestToWorst(pop) {
		if len(out) == k {
			break
		}
		ind := pop[idx]
		if ind.objs == nil {
			continue
		}
		out = append(out, individual{
			cfg:  ind.cfg.Clone(),
			objs: append([]float64(nil), ind.objs...),
		})
	}
	return out
}

// replaceWorst overwrites the worst members of pop with the migrants,
// never displacing more than half the population (but always at least
// one member of a non-empty one). An empty population — an island
// restored from a snapshot that had none — takes no migrants.
func (a *arena) replaceWorst(pop []individual, migrants []individual) {
	if len(pop) == 0 {
		return
	}
	limit := len(pop) / 2
	if limit < 1 {
		limit = 1
	}
	if len(migrants) > limit {
		migrants = migrants[:limit]
	}
	ord := a.orderBestToWorst(pop)
	for j, mig := range migrants {
		pop[ord[len(ord)-1-j]] = mig
	}
}

// mergeFronts folds n fronts into one global Pareto archive (in index
// order) and sorts the merged front canonically, so a fixed (seed, W,
// M) — or a fixed set of race contenders — yields a byte-identical
// result across runs.
func mergeFronts(n int, front func(i int) []pareto.Point) []pareto.Point {
	global := pareto.NewArchive()
	for i := 0; i < n; i++ {
		for _, p := range front(i) {
			global.Add(p)
		}
	}
	merged := global.Points()
	sortFront(merged)
	return merged
}

// sortFront orders points lexicographically by objective vector, with
// the configuration key as the final tie-break — a canonical order
// independent of archive insertion history.
func sortFront(front []pareto.Point) {
	sort.Slice(front, func(a, b int) bool {
		oa, ob := front[a].Objectives, front[b].Objectives
		for i := 0; i < len(oa) && i < len(ob); i++ {
			if oa[i] != ob[i] {
				return oa[i] < ob[i]
			}
		}
		if len(oa) != len(ob) {
			return len(oa) < len(ob)
		}
		ca, okA := front[a].Payload.(skeleton.Config)
		cb, okB := front[b].Payload.(skeleton.Config)
		if okA && okB {
			return ca.Key() < cb.Key()
		}
		return false
	})
}
