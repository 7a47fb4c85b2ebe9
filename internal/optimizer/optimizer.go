// Package optimizer implements the static multi-objective optimizers
// of the framework: the paper's core contribution RS-GDE3 (Generalized
// Differential Evolution 3 combined with Rough-Set-based search-space
// reduction, §III-B), plain GDE3 (the rough-set mechanism disabled, for
// ablation), and the two baselines of the evaluation — exhaustive
// brute-force grid search and random search.
//
// All optimizers consume a skeleton.Space describing the tunable
// parameters and an objective.Evaluator computing the (minimized)
// objective vectors, and produce a Pareto set of configurations
// together with the evaluation count E reported in Table VI.
package optimizer

import (
	"fmt"
	"math"
	"slices"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/roughset"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// Options configures the evolutionary optimizers. Zero values select
// the paper's defaults.
type Options struct {
	// PopSize is the population size (paper: 30).
	PopSize int
	// CR is the crossover rate of Algorithm 1 (paper: 0.5).
	CR float64
	// F is the differential weight of Algorithm 1 (paper: 0.5).
	F float64
	// Stagnation is the number of consecutive non-improving
	// iterations after which the search stops (paper: 3).
	Stagnation int
	// MaxIterations is a safety cap (default 200).
	MaxIterations int
	// Seed drives all stochastic choices.
	Seed int64
	// DisableRoughSet turns RS-GDE3 into plain GDE3 (the search box
	// stays the full space). Used for the ablation study.
	DisableRoughSet bool
	// InitialPopulation holds configurations injected ahead of the
	// random members of the initial population (warm start from the
	// tuning database). Entries must lie within the space; surplus
	// entries beyond PopSize are dropped. Island runs inject the same
	// configurations into every island.
	InitialPopulation []skeleton.Config
}

// validate refuses the negative sizes no default replaces: a negative
// PopSize cannot size a population, and a negative Stagnation or
// MaxIterations would end the search before its first generation.
func (o Options) validate() error {
	if o.PopSize < 0 || o.Stagnation < 0 || o.MaxIterations < 0 {
		return fmt.Errorf("optimizer: PopSize %d, Stagnation %d and MaxIterations %d must not be negative", o.PopSize, o.Stagnation, o.MaxIterations)
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.PopSize == 0 {
		o.PopSize = 30
	}
	if o.CR == 0 {
		o.CR = 0.5
	}
	if o.F == 0 {
		o.F = 0.5
	}
	if o.Stagnation == 0 {
		o.Stagnation = 3
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	return o
}

// Result is the outcome of one optimizer run.
type Result struct {
	// Front is the final Pareto set; each point's Payload is its
	// skeleton.Config.
	Front []pareto.Point
	// Evaluations is the number of distinct configurations evaluated
	// (the E metric of Table VI).
	Evaluations int
	// Iterations is the number of optimizer iterations performed
	// (0 for the one-shot baselines).
	Iterations int
	// AllPoints holds every successfully evaluated point when the
	// optimizer retains them (brute force does; the evolutionary
	// optimizers do not, to bound memory).
	AllPoints []pareto.Point
	// Partial reports that the search was cut short by a cancelled or
	// expired context (see Control): Front is the best-so-far valid
	// Pareto set and Evaluations is accurate, but the stopping rule
	// never fired.
	Partial bool
	// Standings is a race's report per contender, best score first (nil
	// unless Spec.Race was set).
	Standings []Standing
}

// gdeIsland is one self-contained RS-GDE3 search instance: a population
// and its rough-set box. The serial search drives a single instance; the
// island-model driver evolves several concurrently and migrates elites
// between them; the multi-region search advances one per region in
// lock-step over one shared generator.
type gdeIsland struct {
	population
	full skeleton.Box // the whole space; never written through
	box  skeleton.Box
}

// newGDEIsland draws the initial population from rng and evaluates it.
// opt must already carry defaults.
func newGDEIsland(space skeleton.Space, eval objective.Evaluator, opt Options, rng *stats.CountedRand) *gdeIsland {
	g := gdeOver(space, eval, opt)
	g.seed(rng)
	return g
}

// gdeOver is an island over space with no population yet, its box the
// whole space and its arena sized for its generations: seed or restore
// fills it.
func gdeOver(space skeleton.Space, eval objective.Evaluator, opt Options) *gdeIsland {
	full := space.FullBox()
	g := &gdeIsland{population: population{space: space, eval: eval, opt: opt}, full: full, box: full}
	g.arena.reserve(opt.PopSize, space.Dim())
	return g
}

// step runs one RS-GDE3 generation.
func (g *gdeIsland) step() {
	trials := g.propose()
	g.absorb(trials, g.eval.Evaluate(trials))
}

// propose is the first half of a generation: recompute the rough-set
// box and generate one trial per member (Algorithm 1).
func (g *gdeIsland) propose() []skeleton.Config {
	// Rough-set reduction needs a populated non-dominated region to
	// compute meaningful walls: with very few non-dominated points
	// the box degenerates and every trial collapses onto a handful
	// of (cached) configurations. Keep the full space in that case,
	// and re-expand while the search stagnates so it can escape a
	// prematurely narrowed region — the "gradual steering" the
	// paper describes.
	if !g.opt.DisableRoughSet {
		nonDom, dom := g.arena.splitPop(g.pop)
		if len(nonDom) >= 3 && g.stagnant == 0 {
			g.box = roughset.Reduce(g.space, nonDom, dom)
		} else {
			g.box = g.full
		}
	}
	// The trials are the arena's, cut from the slab the next
	// generation rewrites: the evaluation cache and the evaluator's
	// observers copy what they keep, the archive keeps a copy of what it
	// admits, and absorb copies the survivors out.
	trials, slab := g.arena.offspring(len(g.pop), g.space.Dim())
	for i := range g.pop {
		at := len(slab)
		slab = g.arena.mutate(slab, g.pop[i].cfg, g.pop, i, g.box, g.opt, g.rng)
		trials[i] = slab[at:len(slab):len(slab)]
	}
	g.arena.slab = slab
	return trials
}

// absorb is the second half: update the archive with the evaluated
// trials, apply the GDE3 replacement rule, copy the survivors into the
// population's own slab and advance the stagnation counter. It draws
// nothing from the generator.
func (g *gdeIsland) absorb(trials []skeleton.Config, trialObjs [][]float64) {
	improved := g.offerAll(trials, trialObjs)
	g.pop = g.arena.gde3Select(g.pop, trials, trialObjs, g.opt.PopSize)
	g.arena.own(g.pop)
	g.settle(improved)
}

// mutate implements Algorithm 1: pick three distinct other members
// b, c, d; per component, with probability CR (or forcedly at one
// random index) take b + F*(c-d), otherwise keep a's value; then map
// the real vector to the closest configuration within the current box,
// which is appended to dst: with room in dst the call allocates nothing.
func (ar *arena) mutate(dst, a skeleton.Config, pop []individual, self int, box skeleton.Box, opt Options, rng randInterface) skeleton.Config {
	var idx [3]int
	pickDistinct(rng, len(pop), self, idx[:])
	b, c, d := pop[idx[0]].cfg, pop[idx[1]].cfg, pop[idx[2]].cfg
	dim := len(a)
	ar.real = sized(ar.real, dim)
	r := ar.real
	forced := rng.Intn(dim)
	for i := 0; i < dim; i++ {
		if rng.Float64() < opt.CR || i == forced {
			r[i] = float64(b[i]) + opt.F*float64(c[i]-d[i])
		} else {
			r[i] = float64(a[i])
		}
	}
	return box.AppendClosestTo(dst, r)
}

// randInterface is the subset of *rand.Rand the optimizer uses; a named
// interface keeps mutate testable with deterministic sequences.
type randInterface interface {
	Float64() float64
	Intn(n int) int
}

// pickDistinct fills out with distinct indices drawn from [0,n),
// avoiding self. Algorithm 1 requires b, c, d to differ from a, so self
// is excluded whenever another member exists (n > 1); only a
// population of one has no choice but to return self. A draw is
// rejected by scanning the few picks made so far, and every draw —
// kept or rejected — is one rng.Intn(n), so the generator's position
// after the call depends on the values drawn alone.
func pickDistinct(rng randInterface, n, self int, out []int) {
	if n <= len(out) {
		// Tiny populations: allow repeats rather than spinning, but
		// still never hand back self.
		for i := 0; i < len(out); {
			x := rng.Intn(n)
			if x == self && n > 1 {
				continue
			}
			out[i] = x
			i++
		}
		return
	}
	for i := 0; i < len(out); {
		x := rng.Intn(n)
		if x == self || slices.Contains(out[:i], x) {
			continue
		}
		out[i] = x
		i++
	}
}

// gde3Select applies the GDE3 replacement rule: a trial dominating its
// parent replaces it; a dominated trial is discarded; mutually
// non-dominated pairs keep both, and the grown population is truncated
// back to popSize by non-dominated sorting with crowding distance. The
// next population is written into the arena's spare buffer and pop's
// storage becomes the spare: a caller must replace pop by the result
// and hold no other reference to either.
func (a *arena) gde3Select(pop []individual, trials []skeleton.Config, trialObjs [][]float64, popSize int) []individual {
	next := a.cand[:0]
	for i := range pop {
		parent := pop[i]
		trial := individual{cfg: trials[i], objs: trialObjs[i]}
		switch {
		case trial.objs == nil:
			next = append(next, parent)
		case parent.objs == nil:
			next = append(next, trial)
		case pareto.WeaklyDominates(trial.objs, parent.objs):
			next = append(next, trial)
		case pareto.Dominates(parent.objs, trial.objs):
			next = append(next, parent)
		default:
			next = append(next, parent, trial)
		}
	}
	a.cand = next
	var out []individual
	if len(next) <= popSize {
		out = append(a.spare[:0], next...)
	} else {
		out = a.truncate(next, popSize, a.spare)
	}
	a.spare = pop[:0]
	return out
}

// Grid describes an explicit brute-force sampling grid
// (StrategyConfig.Grid): one value list per space dimension.
type Grid [][]int64

// RegularGrid builds a grid with `points` evenly spaced values per
// dimension (always including both bounds when points >= 2).
func RegularGrid(space skeleton.Space, points []int) (Grid, error) {
	if len(points) != space.Dim() {
		return nil, fmt.Errorf("optimizer: grid wants %d dimension sizes, got %d", space.Dim(), len(points))
	}
	g := make(Grid, space.Dim())
	for d, p := range space.Params {
		k := points[d]
		if k < 1 {
			return nil, fmt.Errorf("optimizer: dimension %s needs >= 1 grid point", p.Name)
		}
		span := p.Max - p.Min
		if int64(k) > span+1 {
			k = int(span + 1)
		}
		vals := make([]int64, 0, k)
		if k == 1 {
			vals = append(vals, p.Min)
		} else {
			for i := 0; i < k; i++ {
				v := p.Min + int64(math.Round(float64(i)*float64(span)/float64(k-1)))
				vals = append(vals, v)
			}
		}
		// Deduplicate after rounding.
		uniq := vals[:1]
		for _, v := range vals[1:] {
			if v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		g[d] = uniq
	}
	return g, nil
}

// Size returns the number of grid configurations.
func (g Grid) Size() int {
	total := 1
	for _, vals := range g {
		total *= len(vals)
	}
	return total
}

// configs enumerates every configuration of the grid in lexicographic
// order, the last dimension fastest. They are cut from one slab, each
// cut's capacity capped at its length, so the enumeration costs two
// allocations however large the grid.
func (g Grid) configs(space skeleton.Space) []skeleton.Config {
	d, n := space.Dim(), g.Size()
	cfgs := make([]skeleton.Config, n)
	slab := make([]int64, n*d)
	for i := range cfgs {
		cfg := slab[i*d : (i+1)*d : (i+1)*d]
		// i in the mixed radix of the dimensions' value counts.
		rem := i
		for j := d - 1; j >= 0; j-- {
			vals := g[j]
			cfg[j] = vals[rem%len(vals)]
			rem /= len(vals)
		}
		cfgs[i] = cfg
	}
	return cfgs
}
