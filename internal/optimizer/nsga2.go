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

// NSGA2Options configures the NSGA-II baseline. Zero values pick
// defaults matching the RS-GDE3 configuration where applicable.
type NSGA2Options struct {
	// PopSize is the population size (default 30).
	PopSize int
	// CrossoverRate is the per-gene uniform crossover probability
	// (default 0.5).
	CrossoverRate float64
	// MutationRate is the per-gene mutation probability (default
	// 1/dim).
	MutationRate float64
	// Stagnation stops the run after this many non-improving
	// generations (default 3).
	Stagnation int
	// MaxGenerations caps the run (default 200).
	MaxGenerations int
	// Seed drives the random source.
	Seed int64
	// InitialPopulation holds warm-start configurations injected ahead
	// of the random members of the initial population (see
	// Options.InitialPopulation).
	InitialPopulation []skeleton.Config
}

func (o NSGA2Options) withDefaults(dim int) NSGA2Options {
	if o.PopSize == 0 {
		o.PopSize = 30
	}
	if o.CrossoverRate == 0 {
		o.CrossoverRate = 0.5
	}
	if o.MutationRate == 0 {
		o.MutationRate = 1 / float64(dim)
	}
	if o.Stagnation == 0 {
		o.Stagnation = 3
	}
	if o.MaxGenerations == 0 {
		o.MaxGenerations = 200
	}
	return o
}

// nsga2Island is one self-contained NSGA-II search instance — the
// NSGA-II counterpart of gdeIsland, sharing the same island-evolver
// surface so the island-model driver can run either algorithm.
type nsga2Island struct {
	space    skeleton.Space
	eval     objective.Evaluator
	opt      NSGA2Options
	rng      *stats.CountedRand
	pop      []individual
	archive  *pareto.Archive
	stagnant int
	arena    arena
}

// newNSGA2Island seeds and evaluates the initial population. opt must
// already carry defaults.
func newNSGA2Island(space skeleton.Space, eval objective.Evaluator, opt NSGA2Options, seed int64) *nsga2Island {
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
		if objs[i] != nil {
			n.archive.Add(pareto.Point{Payload: cfgs[i], Objectives: objs[i]})
		}
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
			if rng.Float64() < opt.CrossoverRate && g < len(p2.cfg) {
				child[g] = p2.cfg[g]
			}
			if rng.Float64() < opt.MutationRate {
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
		if childObjs[i] != nil &&
			n.archive.Add(pareto.Point{Payload: children[i], Objectives: childObjs[i]}) {
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
func restoreNSGA2Island(space skeleton.Space, eval objective.Evaluator, opt NSGA2Options, seed int64, st IslandState) *nsga2Island {
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
