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

// nsga2Island is one self-contained NSGA-II search instance: a
// population and the NSGA-II generation step, on the island-evolver
// surface the other strategies share.
type nsga2Island struct{ population }

// newNSGA2Island seeds and evaluates the initial population. opt must
// already carry defaults.
func newNSGA2Island(space skeleton.Space, eval objective.Evaluator, opt Options, seed int64) *nsga2Island {
	n := nsga2Over(space, eval, opt)
	n.seed(stats.NewCountedRand(seed))
	return n
}

// nsga2Over is an island over space with no population yet, its arena
// sized for its generations: seed or restore fills it.
func nsga2Over(space skeleton.Space, eval objective.Evaluator, opt Options) *nsga2Island {
	n := &nsga2Island{population{space: space, eval: eval, opt: opt}}
	n.arena.reserve(opt.PopSize, space.Dim())
	return n
}

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
	// Offspring generation, into the arena: each child starts as a copy
	// of p1's values appended to the slab and is changed and clamped
	// where it lies.
	children, slab := ar.offspring(opt.PopSize, n.space.Dim())
	for i := range children {
		p1, p2 := tournament(), tournament()
		child := cut(&slab, p1.cfg)
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
		clamp(n.space, child)
		children[i] = child
	}
	ar.slab = slab
	childObjs := n.eval.Evaluate(children)
	improved := n.offerAll(children, childObjs)
	combined := append(ar.cand[:0], pop...)
	for i := range children {
		combined = append(combined, individual{cfg: children[i], objs: childObjs[i]})
	}
	ar.cand = combined
	n.pop = ar.truncate(combined, opt.PopSize, ar.spare)
	ar.spare = pop[:0]
	ar.own(n.pop)
	n.settle(improved)
}

// clamp clips c into the space where it lies: skeleton.Space.Clip
// without the copy.
func clamp(space skeleton.Space, c skeleton.Config) {
	for i, p := range space.Params {
		if i >= len(c) {
			break
		}
		c[i] = min(max(c[i], p.Min), p.Max)
	}
}
