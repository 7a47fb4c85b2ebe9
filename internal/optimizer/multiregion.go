// Multi-region tuning: the paper's §III-A observes that when a program
// contains several tunable regions, "a single execution of the
// resulting program is sufficient to obtain measurements for all
// simultaneously tuned regions" — the compiler instantiates one
// candidate configuration per region per run and measures them all at
// once. That says how executions are counted, not that there is a
// second search: the regions are ordinary RS-GDE3 instances advanced in
// lock-step.

package optimizer

import (
	"context"
	"errors"
	"fmt"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// MultiRSGDE3 tunes all regions simultaneously, region r over spaces[r]
// and evals[r], all drawing from one generator. The regions are the
// islands of one generation loop that steps them one after another, in
// order: every generation each live region proposes its trials — member
// slot i of every region goes into one program execution — and has them
// evaluated and absorbed. Absorbing draws nothing from the generator, so
// the draws come in the same order as if every region proposed before
// any was evaluated. A region that has stagnated for opt.Stagnation
// generations is frozen: its evaluator sees no further call and it rides
// along in the executions the others need anyway, so the run is bounded
// by the slowest-converging region.
//
// Every Result reports the shared counts: Iterations is the lock-step
// generation count and Evaluations the program executions, PopSize for
// the initial populations plus PopSize per generation whatever the
// regions' caches hold — the program runs as long as any region needs a
// fresh measurement.
//
// ctx bounds the search as Control.Ctx bounds Run (nil means never
// cancelled): once it is done, no region's evaluator starts another
// evaluation, the search stops at the next generation boundary and
// every Result carries its region's best-so-far front with Partial set.
func MultiRSGDE3(ctx context.Context, spaces []skeleton.Space, evals []objective.Evaluator, opt Options) ([]*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if len(spaces) == 0 {
		return nil, errors.New("optimizer: no regions")
	}
	if len(evals) != len(spaces) {
		return nil, fmt.Errorf("optimizer: %d evaluators for %d regions", len(evals), len(spaces))
	}
	if len(opt.InitialPopulation) > 0 {
		return nil, errors.New("optimizer: one InitialPopulation cannot address several regions' spaces")
	}
	for r, sp := range spaces {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("optimizer: region %d: %w", r, err)
		}
	}
	ctrl := Control{Ctx: ctx}
	for _, eval := range evals {
		defer newControlledRun(eval, ctrl, "", "").close()
	}
	// Drawn from in region order, then member order.
	rng := stats.NewCountedRand(opt.Seed)
	regions := make([]islandEvolver, len(spaces))
	for r := range spaces {
		regions[r] = newGDEIsland(spaces[r], evals[r], opt, rng)
	}
	// The loop's own run holds no evaluator: each region's is bound to
	// ctx above, and the joint search checkpoints nothing.
	iters, partial, err := (&controlledRun{ctrl: ctrl}).loop(regions, opt.MaxIterations, true, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(regions))
	for r, g := range regions {
		out[r] = &Result{Front: g.points(), Evaluations: opt.PopSize * (1 + iters), Iterations: iters, Partial: partial}
	}
	return out, nil
}
