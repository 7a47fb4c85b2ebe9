package optimizer

import (
	"math/rand"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

type individual struct {
	cfg  skeleton.Config
	objs []float64 // nil = failed evaluation
}

// population is the state the population strategies — RS-GDE3, NSGA-II
// and MOTPE — share: the members, the Pareto archive of what they
// evaluated, the stagnation counter and the generator. A strategy embeds
// it and writes its generation step; the rest of the islandEvolver
// surface is population's. seed or restore fills a population whose
// space, eval and opt are set; opt must already carry defaults.
type population struct {
	space    skeleton.Space
	eval     objective.Evaluator
	opt      Options
	rng      *stats.CountedRand
	pop      []individual
	archive  *pareto.Archive
	stagnant int
	arena    arena
	// kept holds the values of the configurations the archive kept from
	// the offspring (offerAll): append-only, in chunks, so what the
	// archive holds is never written again.
	kept []int64
}

// seed draws the initial population from rng, evaluates it in one batch
// and offers it to a fresh archive. A search instance owns its
// generator; the regions of a multi-region run share one.
func (p *population) seed(rng *stats.CountedRand) {
	p.rng = rng
	p.archive = pareto.NewArchive()
	cfgs := seededPopulation(p.space, p.opt.InitialPopulation, p.opt.PopSize, rng.Rand)
	p.pop = make([]individual, 0, len(cfgs))
	for i, objs := range p.eval.Evaluate(cfgs) {
		p.add(cfgs[i], objs)
	}
}

// restore takes over a checkpointed state: members, archive and
// stagnation counter come from st, and the generator is seed's
// fast-forwarded to the checkpointed draw count, so the search
// continues exactly where it stopped — nothing is re-evaluated. The
// archived points are mutually non-dominated and in insertion order, so
// re-adding them in order rebuilds the archive exactly.
func (p *population) restore(seed int64, st IslandState) {
	p.rng = stats.NewCountedRand(seed)
	p.rng.Skip(st.Draws)
	p.stagnant = st.Stagnant
	p.archive = pareto.NewArchive()
	for _, m := range st.Archive {
		p.archive.Add(pareto.Point{Payload: skeleton.Config(append([]int64(nil), m.Config...)), Objectives: append([]float64(nil), m.Objs...)})
	}
	p.pop = make([]individual, len(st.Pop))
	for i, m := range st.Pop {
		p.pop[i] = individual{cfg: skeleton.Config(append([]int64(nil), m.Config...)), objs: append([]float64(nil), m.Objs...)}
	}
}

// seededPopulation builds an initial population: warm-start seeds
// first (cloned, truncated to popSize), uniform random draws for the
// rest. Seeds outside the space are clamped rather than rejected, so a
// front stored for a slightly different space still contributes. The
// draws are capped cuts of one fresh slab, never an arena's: the
// archive keeps the members it admits without copying them.
func seededPopulation(space skeleton.Space, seeds []skeleton.Config, popSize int, rng *rand.Rand) []skeleton.Config {
	cfgs := make([]skeleton.Config, popSize)
	slab := make([]int64, 0, popSize*space.Dim())
	for i := range cfgs {
		if i < len(seeds) && len(seeds[i]) == space.Dim() {
			cfgs[i] = space.Clip(seeds[i])
		} else {
			cfgs[i] = drawInto(&slab, space, rng)
		}
	}
	return cfgs
}

// drawInto draws a uniform random configuration of space into the
// free capacity of *slab and returns it as a capped cut, so that a
// list of draws costs one slab.
func drawInto(slab *[]int64, space skeleton.Space, rng *rand.Rand) skeleton.Config {
	n := len(*slab)
	*slab = skeleton.AppendRandom(*slab, space, rng)
	return (*slab)[n:len(*slab):len(*slab)]
}

// offer hands an evaluated configuration to the archive and reports
// whether the archive kept it. Admission is decided on the objective
// vector first, so the configuration is boxed into a Point payload only
// when kept; a failed evaluation (nil objs) is never offered. With a nil
// chunk the archive keeps cfg itself, which must be memory nobody
// writes again (a fresh batch); otherwise cfg is memory its caller
// rewrites, and what the archive keeps is a copy appended to *chunk.
func offer(a *pareto.Archive, cfg skeleton.Config, objs []float64, chunk *[]int64) bool {
	if objs == nil || !a.Admits(objs) {
		return false
	}
	if chunk != nil {
		cfg = keep(chunk, cfg)
	}
	return a.Add(pareto.Point{Payload: cfg, Objectives: objs})
}

// keptChunk is how many configurations a chunk of kept values holds.
const keptChunk = 32

// keep appends a copy of cfg to the append-only chunk and returns it,
// its capacity capped at its length. A full chunk is left to the points
// that hold it and a fresh one is started, so a copy costs a
// thirty-second of a chunk beside its boxing.
func keep(chunk *[]int64, cfg skeleton.Config) skeleton.Config {
	if cap(*chunk)-len(*chunk) < len(cfg) {
		*chunk = make([]int64, 0, keptChunk*len(cfg))
	}
	return cut(chunk, cfg)
}

// add appends an evaluated member and offers it to the archive,
// reporting whether the archive kept it. cfg is fresh memory: a seed,
// or one of MOTPE's observations.
func (p *population) add(cfg skeleton.Config, objs []float64) bool {
	p.pop = append(p.pop, individual{cfg: cfg, objs: objs})
	return offer(p.archive, cfg, objs, nil)
}

// offerAll offers a generation's evaluated offspring to the archive and
// reports whether the archive kept any of it. The offspring are the
// arena's, so what the archive keeps is copied into p.kept.
func (p *population) offerAll(cfgs []skeleton.Config, objs [][]float64) bool {
	kept := false
	for i := range cfgs {
		kept = offer(p.archive, cfgs[i], objs[i], &p.kept) || kept
	}
	return kept
}

// settle advances the stagnation counter at the end of a generation: a
// generation whose batch the archive kept any of resets it.
func (p *population) settle(improved bool) {
	if improved {
		p.stagnant = 0
	} else {
		p.stagnant++
	}
}

// done reports whether the stagnation stopping rule has fired.
func (p *population) done() bool { return p.stagnant >= p.opt.Stagnation }

// elites clones the k best members for migration.
func (p *population) elites(k int) []individual { return p.arena.selectElites(p.pop, k) }

// inject replaces the worst members with the given migrants.
func (p *population) inject(migrants []individual) { p.arena.replaceWorst(p.pop, migrants) }

// points returns the archived front.
func (p *population) points() []pareto.Point { return p.archive.Points() }

// snapshot serializes the complete state for checkpointing. Every
// configuration and objective vector is cut from one pair of slabs
// sized up front, so the snapshot shares nothing with the population.
func (p *population) snapshot() IslandState {
	st := IslandState{Stagnant: p.stagnant, Draws: p.rng.Draws()}
	points := p.archive.Points()
	ni, nf := 0, 0
	for _, ind := range p.pop {
		ni, nf = ni+len(ind.cfg), nf+len(ind.objs)
	}
	for _, pt := range points {
		cfg, _ := pt.Payload.(skeleton.Config)
		ni, nf = ni+len(cfg), nf+len(pt.Objectives)
	}
	ints, floats := make([]int64, 0, ni), make([]float64, 0, nf)
	if len(p.pop) > 0 {
		st.Pop = make([]Member, len(p.pop))
		for i, ind := range p.pop {
			st.Pop[i] = Member{Config: cut(&ints, ind.cfg), Objs: cut(&floats, ind.objs)}
		}
	}
	if len(points) > 0 {
		st.Archive = make([]Member, len(points))
		for i, pt := range points {
			cfg, _ := pt.Payload.(skeleton.Config)
			st.Archive[i] = Member{Config: cut(&ints, cfg), Objs: cut(&floats, pt.Objectives)}
		}
	}
	return st
}
