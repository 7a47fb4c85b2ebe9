// NSGA-II: the classic multi-objective genetic algorithm, provided as
// an additional comparison baseline beyond the paper's three
// strategies. It shares the non-dominated-sorting and crowding-distance
// machinery with GDE3's truncation step but uses binary-tournament
// selection, uniform crossover and integer mutation instead of
// differential evolution, making it a meaningful algorithmic contrast
// for the ablation benchmarks.

package optimizer

import (
	"math"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// NSGA2Options is what the NSGA-II baseline takes beyond the shared
// Options, which carry its population, stagnation window, generation cap
// (MaxIterations) and warm-start seeds.
type NSGA2Options struct {
	// Seed drives the random source; 0 takes Options.Seed.
	Seed int64
}

// nsga2CrossoverRate is NSGA-II's per-gene uniform crossover
// probability.
const nsga2CrossoverRate = 0.5

// nsga2MutationRate is NSGA-II's per-gene mutation probability: one gene
// of the space's in expectation.
func nsga2MutationRate(space skeleton.Space) float64 { return 1 / float64(space.Dim()) }

// nsga2Island is one self-contained NSGA-II search instance — the
// NSGA-II counterpart of gdeIsland, sharing the same island-evolver
// surface so the island-model driver can run either algorithm.
type nsga2Island struct {
	space    skeleton.Space
	eval     objective.Evaluator
	opt      Options
	rng      *stats.CountedRand
	pop      []individual
	archive  *pareto.Archive
	stagnant int
	arena    arena
}

// newNSGA2Island seeds and evaluates the initial population. opt must
// already carry defaults.
func newNSGA2Island(space skeleton.Space, eval objective.Evaluator, opt Options, seed int64) *nsga2Island {
	n := &nsga2Island{
		space:   space,
		eval:    eval,
		opt:     opt,
		rng:     stats.NewCountedRand(seed),
		archive: pareto.NewArchive(),
	}
	n.pop = make([]individual, opt.PopSize)
	cfgs := seededPopulation(space, opt.InitialPopulation, opt.PopSize, n.rng.Rand)
	objs := eval.Evaluate(cfgs)
	for i := range n.pop {
		n.pop[i] = individual{cfg: cfgs[i], objs: objs[i]}
		offer(n.archive, cfgs[i], objs[i])
	}
	return n
}

// done reports whether the stagnation stopping rule has fired.
func (n *nsga2Island) done() bool { return n.stagnant >= n.opt.Stagnation }

// step runs one NSGA-II generation: binary-tournament selection,
// uniform crossover, integer mutation, archive update and elitist
// environmental selection.
func (n *nsga2Island) step() {
	pop := n.pop
	rng := n.rng
	opt := n.opt
	mutationRate := nsga2MutationRate(n.space)
	ar := &n.arena
	ranks := ar.nonDominatedSort(pop)
	rankOf := ar.rankOf
	// Crowding per rank for tournament tie-breaking.
	ar.crowd = sized(ar.crowd, len(pop))
	crowd := ar.crowd
	for _, members := range ranks {
		d := ar.crowdingDistance(pop, members)
		for k, i := range members {
			crowd[i] = d[k]
		}
	}
	tournament := func() individual {
		a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
		switch {
		case rankOf[a] < rankOf[b]:
			return pop[a]
		case rankOf[b] < rankOf[a]:
			return pop[b]
		case crowd[a] >= crowd[b]:
			return pop[a]
		default:
			return pop[b]
		}
	}
	// Offspring generation.
	children := make([]skeleton.Config, opt.PopSize)
	for i := range children {
		p1, p2 := tournament(), tournament()
		child := p1.cfg.Clone()
		for g := range child {
			if rng.Float64() < nsga2CrossoverRate && g < len(p2.cfg) {
				child[g] = p2.cfg[g]
			}
			if rng.Float64() < mutationRate {
				p := n.space.Params[g]
				// Polynomial-ish integer mutation: gaussian step
				// scaled to a tenth of the range.
				span := float64(p.Max - p.Min)
				step := int64(math.Round(rng.NormFloat64() * span / 10))
				child[g] += step
			}
		}
		children[i] = n.space.Clip(child)
	}
	childObjs := n.eval.Evaluate(children)
	improved := false
	combined := append(ar.cand[:0], pop...)
	for i := range children {
		combined = append(combined, individual{cfg: children[i], objs: childObjs[i]})
		if offer(n.archive, children[i], childObjs[i]) {
			improved = true
		}
	}
	ar.cand = combined
	n.pop = ar.truncate(combined, opt.PopSize, ar.spare)
	ar.spare = pop[:0]
	if improved {
		n.stagnant = 0
	} else {
		n.stagnant++
	}
}

// elites clones the island's k best members for migration.
func (n *nsga2Island) elites(k int) []individual { return n.arena.selectElites(n.pop, k) }

// inject replaces the island's worst members with the given migrants.
func (n *nsga2Island) inject(migrants []individual) { n.arena.replaceWorst(n.pop, migrants) }

// points returns the island's archived front.
func (n *nsga2Island) points() []pareto.Point { return n.archive.Points() }

// snapshot serializes the island's state for checkpointing.
func (n *nsga2Island) snapshot() IslandState {
	return snapshotState(n.pop, n.archive, n.stagnant, n.rng.Draws())
}

// restoreNSGA2Island rebuilds an island from a checkpointed state: the
// RNG is reseeded and fast-forwarded to the checkpointed draw count,
// and population and archive are restored verbatim (no re-evaluation —
// objective vectors travel with the snapshot). opt must already carry
// defaults.
func restoreNSGA2Island(space skeleton.Space, eval objective.Evaluator, opt Options, seed int64, st IslandState) *nsga2Island {
	n := &nsga2Island{
		space:    space,
		eval:     eval,
		opt:      opt,
		rng:      stats.NewCountedRand(seed),
		archive:  restoreArchive(st.Archive),
		stagnant: st.Stagnant,
	}
	n.rng.Skip(st.Draws)
	n.pop = make([]individual, len(st.Pop))
	for i, m := range st.Pop {
		n.pop[i] = restoreMember(m)
	}
	return n
}
