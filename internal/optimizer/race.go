// Racing meta-optimizer, what Run does for a Spec with Race set: run
// several registered strategies over one shared evaluation cache, score
// each strategy every Interval generations on hypervolume per
// evaluation against a shared reference point, and eliminate the
// trailing half (successive-halving style) so the remaining evaluation
// budget flows to the leaders. The approach follows the
// optimizer-portfolio line of ComPar (arxiv 2005.13304) and MCompiler
// (arxiv 1905.12755): committing to a single search strategy up front
// is dominated by racing several and reallocating toward whichever wins
// on THIS kernel/machine pair.
//
// The contenders are the islands of controlledRun.loop, the generation
// loop every search runs, stepped one after another in a fixed order
// (serially: they share the budget, and a contender does not step once
// it is spent). Scoring and elimination are the loop's barrier function.
//
// Determinism: each contender evolves from its own seeded RNG and its
// own proposals; the shared cache changes who computes a value, never
// the value. Contenders step in fixed order within each generation and
// scoring happens at its barrier, so a fixed seed yields a
// byte-identical merged front regardless of GOMAXPROCS.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// RaceOptions configures the racing meta-optimizer. Zero values select
// the defaults.
type RaceOptions struct {
	// Strategies names the registered contenders (default: every
	// registered strategy that is not Exhaustive, in sorted order).
	Strategies []string
	// Interval is the number of lockstep generations between scoring
	// rounds (default 5).
	Interval int
	// Budget is a hard cap on the race's global distinct successful
	// evaluations. Once reached, proposals of configurations not
	// already in the shared cache report as failed and the race stops
	// at the next contender-step boundary — the cap is exact, never
	// overshot. 0 means no cap (the race ends when every surviving
	// contender's stopping rule fires).
	Budget int
	// MinSurvivors is the number of contenders elimination must leave
	// standing (default 1).
	MinSurvivors int
}

// Resolve applies the defaults to o and refuses what a race under it
// could not run: fewer than two contenders, one named twice, an unknown
// or Exhaustive one, an interval below one, a negative budget or no
// survivor. Run resolves a Spec's Race with it, so a front-end that
// calls it refuses exactly what Run would.
func (o RaceOptions) Resolve() (RaceOptions, error) {
	var contenders []string
	for _, name := range StrategyNames() {
		if s, _ := StrategyByName(name); !s.Exhaustive {
			contenders = append(contenders, name)
		}
	}
	if len(o.Strategies) == 0 {
		o.Strategies = contenders
	}
	if o.Interval == 0 {
		o.Interval = 5
	}
	if o.MinSurvivors == 0 {
		o.MinSurvivors = 1
	}
	switch {
	case o.Interval < 1:
		return o, fmt.Errorf("optimizer: race interval %d < 1", o.Interval)
	case o.Budget < 0:
		return o, fmt.Errorf("optimizer: race budget %d < 0", o.Budget)
	case o.MinSurvivors < 1:
		return o, fmt.Errorf("optimizer: race needs at least one survivor, got %d", o.MinSurvivors)
	case len(o.Strategies) < 2:
		return o, fmt.Errorf("optimizer: a race needs at least two strategies, got %v", o.Strategies)
	}
	seen := map[string]bool{}
	for _, name := range o.Strategies {
		if seen[name] {
			return o, fmt.Errorf("optimizer: strategy %q raced twice", name)
		}
		seen[name] = true
		if s, err := StrategyByName(name); err != nil || s.Exhaustive {
			return o, fmt.Errorf("optimizer: %q is not a race contender (contenders: %s)", name, strings.Join(contenders, ", "))
		}
	}
	return o, nil
}

// Standing reports one contender's final state.
type Standing struct {
	// Strategy is the registry name.
	Strategy string `json:"strategy"`
	// Evaluations counts the distinct successful configurations this
	// contender proposed (configurations also proposed by another
	// contender count for both — the shared cache makes the overlap
	// free globally, but each strategy is charged for what it asked).
	Evaluations int `json:"evaluations"`
	// Generations is how many lockstep generations the contender ran.
	Generations int `json:"generations"`
	// FrontSize is the contender's own final archive size.
	FrontSize int `json:"front_size"`
	// HV is the contender's final hypervolume against the shared
	// reference point.
	HV float64 `json:"hv"`
	// Score is HV per evaluation — the racing fitness.
	Score float64 `json:"score"`
	// Eliminated reports whether a scoring round stopped this
	// contender; EliminatedAt is the generation barrier that did.
	Eliminated   bool `json:"eliminated"`
	EliminatedAt int  `json:"eliminated_at,omitempty"`
}

// attributedEvaluator charges a contender for the distinct successful
// configurations it proposes while delegating the work (and the
// caching) to the shared evaluator. No mutex: one contender steps
// sequentially, so its own evaluator is never called concurrently.
type attributedEvaluator struct {
	inner objective.Evaluator
	seen  map[string]bool
}

func newAttributedEvaluator(inner objective.Evaluator) *attributedEvaluator {
	return &attributedEvaluator{inner: inner, seen: map[string]bool{}}
}

func (a *attributedEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	objs := a.inner.Evaluate(cfgs)
	for i, o := range objs {
		if o != nil {
			a.seen[cfgs[i].Key()] = true
		}
	}
	return objs
}

func (a *attributedEvaluator) ObjectiveNames() []string { return a.inner.ObjectiveNames() }

// Evaluations is the contender-attributed E (distinct successful
// proposals of this contender, not the global count).
func (a *attributedEvaluator) Evaluations() int { return len(a.seen) }

// budgetEvaluator hard-caps the global distinct successful evaluation
// count: once the shared evaluator has consumed the budget, uncached
// configurations are no longer evaluated and report as failed (nil
// objectives), which every evolver tolerates. Near the boundary the
// batch is shrunk so the cap is exact rather than approximate; cached
// configurations stay free, so an under-filled sub-batch just loops.
type budgetEvaluator struct {
	inner  objective.Evaluator
	e0     int
	budget int
}

func (b *budgetEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	objs := make([][]float64, len(cfgs))
	for i := 0; i < len(cfgs); {
		rem := b.budget - (b.inner.Evaluations() - b.e0)
		if rem <= 0 {
			break
		}
		n := len(cfgs) - i
		if n > rem {
			n = rem
		}
		copy(objs[i:], b.inner.Evaluate(cfgs[i:i+n]))
		i += n
	}
	return objs
}

func (b *budgetEvaluator) ObjectiveNames() []string { return b.inner.ObjectiveNames() }
func (b *budgetEvaluator) Evaluations() int         { return b.inner.Evaluations() }

// contender is one racing strategy instance: its island, stepped by
// the generation loop, as long as the contender is not eliminated, its
// own stopping rule has not fired, its generation cap is not reached and
// the race has not halted.
type contender struct {
	islandEvolver
	strat        Strategy
	eval         *attributedEvaluator
	maxGens      int
	gens         int
	eliminated   bool
	eliminatedAt int
	halted       func() bool
}

func (c *contender) done() bool {
	return c.eliminated || c.islandEvolver.done() || c.gens >= c.maxGens || c.halted()
}

// step evolves the contender one generation, unless the race halted
// while an earlier contender of the generation stepped.
func (c *contender) step() {
	if c.halted() {
		return
	}
	c.islandEvolver.step()
	c.gens++
}

// race runs the registered strategies spec.Race names over the shared
// evaluator under the given Control. The race halts once the budget is
// spent or the context is done; cancellation returns the merged
// best-so-far front with Result.Partial set. The race keeps
// heterogeneous per-strategy state, so Checkpointer is ignored and
// Resume is an error; checkpoint a single strategy instead.
//
// The merged front folds in EVERY contender's archive — eliminated
// ones included: their evaluations were paid for, and an early leader
// eliminated later may still hold points the survivors never found.
func race(space skeleton.Space, eval objective.Evaluator, spec Spec, ctrl Control) (*Result, error) {
	switch {
	case spec.Strategy != "":
		return nil, fmt.Errorf("optimizer: a race names its contenders in Race.Strategies, not in Strategy (%q)", spec.Strategy)
	case spec.Islands != nil:
		return nil, fmt.Errorf("optimizer: a race does not support the island model")
	case ctrl.Resume != nil:
		return nil, fmt.Errorf("optimizer: a race keeps heterogeneous per-strategy state and cannot resume; checkpoint a single strategy instead")
	}
	ctrl.Checkpointer = nil
	cfg := spec.Config
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ropt, err := spec.Race.Resolve()
	if err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	run := newControlledRun(eval, ctrl, "race", "")
	defer run.close()

	// The budget is enforced at the evaluator so it can never be
	// overshot: once it is consumed, uncached proposals fail.
	shared := objective.Evaluator(eval)
	if ropt.Budget > 0 {
		shared = &budgetEvaluator{inner: eval, e0: run.e0, budget: ropt.Budget}
	}
	ctx := ctrl.ctx()
	halted := func() bool {
		return ctx.Err() != nil || ropt.Budget > 0 && eval.Evaluations()-run.e0 >= ropt.Budget
	}

	// Build one contender per strategy. Every contender shares the
	// base seed: population-based strategies then start from
	// coinciding initial draws, which the shared cache makes free —
	// the race budget goes into where the strategies differ.
	contenders := make([]*contender, len(ropt.Strategies))
	islands := make([]islandEvolver, len(contenders))
	for i, name := range ropt.Strategies {
		strat, _ := StrategyByName(name) // Resolve refused an unknown name
		ccfg := strat.Normalize(space, cfg)
		maxGens := strat.MaxGenerations(ccfg)
		if ropt.Budget > 0 {
			// With a global budget the budget, not the per-strategy
			// generation cap, is the resource being raced for: a
			// surviving contender keeps evolving past its standalone
			// generation budget until the evaluations run dry or its
			// own stopping rule (stagnation, exhausted walk) fires.
			maxGens = math.MaxInt
		}
		c := &contender{strat: strat, eval: newAttributedEvaluator(shared), maxGens: maxGens, halted: halted}
		// Initial states evaluate sequentially in contender order: the
		// budget cap reads the global evaluation count, so everything
		// that consumes budget must do so in a defined order. The
		// shared seed keeps this cheap — later contenders hit the cache
		// of the first.
		c.islandEvolver = strat.New(space, c.eval, ccfg, ccfg.Options.Seed)
		contenders[i], islands[i] = c, c
	}
	// Contenders share one cache, so a surrogate screen is one model,
	// synced at every generation barrier. Every Interval generations the
	// trailing half of the live contenders is eliminated (successive
	// halving), never below MinSurvivors.
	gens, partial, err := run.loop(islands, math.MaxInt, true, func(gen int) {
		if gen%ropt.Interval == 0 {
			raceEliminate(contenders, ropt.MinSurvivors, gen)
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Front:       mergeFronts(len(contenders), func(i int) []pareto.Point { return contenders[i].points() }),
		Evaluations: run.totalE(),
		Iterations:  gens,
		Partial:     partial,
		Standings:   raceStandings(contenders),
	}, nil
}

// raceScores computes HV-per-evaluation for the given contenders
// against a reference shared across all their fronts. A contender
// whose archive is empty (every proposal failed) scores zero.
func raceScores(cs []*contender) (scores, hvs []float64) {
	fronts := make([][]pareto.Point, len(cs))
	for i, c := range cs {
		fronts[i] = c.points()
	}
	ref, err := pareto.SharedReference(fronts...)
	scores = make([]float64, len(cs))
	hvs = make([]float64, len(cs))
	if err != nil {
		return scores, hvs
	}
	for i, c := range cs {
		var objs [][]float64
		for _, p := range fronts[i] {
			objs = append(objs, p.Objectives)
		}
		hv, err := pareto.Hypervolume(objs, ref)
		if err != nil {
			continue
		}
		hvs[i] = hv
		e := c.eval.Evaluations()
		if e < 1 {
			e = 1
		}
		scores[i] = hv / float64(e)
	}
	return scores, hvs
}

// raceEliminate scores the live contenders and eliminates the trailing
// half, keeping at least minSurvivors. Ties break by name so the
// outcome is independent of scheduling.
func raceEliminate(contenders []*contender, minSurvivors, gen int) {
	var live []*contender
	for _, c := range contenders {
		if !c.eliminated {
			live = append(live, c)
		}
	}
	if len(live) <= minSurvivors {
		return
	}
	scores, _ := raceScores(live)
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := scores[order[a]], scores[order[b]]
		if sa != sb {
			return sa > sb
		}
		return live[order[a]].strat.Name < live[order[b]].strat.Name
	})
	keep := (len(live) + 1) / 2
	if keep < minSurvivors {
		keep = minSurvivors
	}
	// Elimination doubles as a hand-off: the eliminated contenders'
	// archived fronts migrate into every survivor, so evaluations spent
	// on a losing strategy keep working for the winners (replaceWorst
	// caps the graft at half a population; MOTPE folds the points into
	// its observation history instead).
	var handoff []individual
	for _, oi := range order[keep:] {
		c := live[oi]
		c.eliminated = true
		c.eliminatedAt = gen
		for _, p := range c.points() {
			if cfg, ok := p.Payload.(skeleton.Config); ok {
				handoff = append(handoff, individual{cfg: cfg, objs: p.Objectives})
			}
		}
	}
	if len(handoff) == 0 {
		return
	}
	for _, oi := range order[:keep] {
		live[oi].inject(handoff)
	}
}

// raceStandings builds the final per-contender report, scored against
// a reference shared across every contender's final front.
func raceStandings(contenders []*contender) []Standing {
	scores, hvs := raceScores(contenders)
	standings := make([]Standing, len(contenders))
	for i, c := range contenders {
		standings[i] = Standing{
			Strategy:     c.strat.Name,
			Evaluations:  c.eval.Evaluations(),
			Generations:  c.gens,
			FrontSize:    len(c.points()),
			HV:           hvs[i],
			Score:        scores[i],
			Eliminated:   c.eliminated,
			EliminatedAt: c.eliminatedAt,
		}
	}
	sort.Slice(standings, func(a, b int) bool {
		if standings[a].Score != standings[b].Score {
			return standings[a].Score > standings[b].Score
		}
		return standings[a].Strategy < standings[b].Strategy
	})
	return standings
}
