// Multi-region tuning: the paper's §III-A observes that when a program
// contains several tunable regions, "a single execution of the
// resulting program is sufficient to obtain measurements for all
// simultaneously tuned regions" — the compiler instantiates one
// candidate configuration per region per run and measures them all at
// once. MultiRSGDE3 implements exactly that coupling: one RS-GDE3
// population per region, advanced in lock-step, with each joint
// program execution carrying one trial from every region's population.

package optimizer

import (
	"errors"
	"fmt"

	"autotune/internal/pareto"
	"autotune/internal/roughset"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// JointEvaluator evaluates aligned batches of per-region
// configurations: column i across all regions forms one program
// execution.
type JointEvaluator interface {
	// EvaluateJoint receives cfgs[r][i] — region r's configuration in
	// execution i (all rows share one length) — and returns
	// objs[r][i], the per-region objective vectors. A nil vector
	// marks a failed region instantiation.
	EvaluateJoint(cfgs [][]skeleton.Config) [][][]float64
	// Executions returns the number of program executions performed —
	// the multi-region counterpart of the E metric.
	Executions() int
	// ObjectiveNames labels the objective vector components.
	ObjectiveNames() []string
}

// MultiResult is the outcome of one multi-region run.
type MultiResult struct {
	// Regions holds one Result per region (evaluation counts are the
	// shared execution count).
	Regions []*Result
	// Executions is the total number of program executions.
	Executions int
	// Iterations is the number of lock-step iterations.
	Iterations int
}

// MultiRSGDE3 tunes all regions simultaneously. The run stops when
// every region's archive has stagnated for opt.Stagnation iterations
// (regions that converge early keep riding along at no extra cost —
// their trial slots are still filled, exactly as a real joint
// execution would).
func MultiRSGDE3(spaces []skeleton.Space, eval JointEvaluator, opt Options) (*MultiResult, error) {
	opt = opt.withDefaults()
	if len(spaces) == 0 {
		return nil, errors.New("optimizer: no regions")
	}
	for r, sp := range spaces {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("optimizer: region %d: %w", r, err)
		}
	}
	rng := stats.NewRand(opt.Seed)
	nR := len(spaces)

	pops := make([][]individual, nR)
	archives := make([]*pareto.Archive, nR)
	stagnant := make([]int, nR)
	boxes := make([]skeleton.Box, nR)
	arenas := make([]arena, nR)

	// Initial joint batch.
	init := make([][]skeleton.Config, nR)
	for r := range spaces {
		init[r] = make([]skeleton.Config, opt.PopSize)
		for i := range init[r] {
			init[r][i] = spaces[r].Random(rng)
		}
		boxes[r] = spaces[r].FullBox()
		archives[r] = pareto.NewArchive()
	}
	objs := eval.EvaluateJoint(init)
	if len(objs) != nR {
		return nil, errors.New("optimizer: joint evaluator returned wrong region count")
	}
	for r := range spaces {
		pops[r] = make([]individual, opt.PopSize)
		for i := range pops[r] {
			pops[r][i] = individual{cfg: init[r][i], objs: objs[r][i]}
			if objs[r][i] != nil {
				archives[r].Add(pareto.Point{Payload: init[r][i], Objectives: objs[r][i]})
			}
		}
	}

	allStagnated := func() bool {
		for r := range stagnant {
			if stagnant[r] < opt.Stagnation {
				return false
			}
		}
		return true
	}

	iters := 0
	for iters = 0; iters < opt.MaxIterations && !allStagnated(); iters++ {
		trials := make([][]skeleton.Config, nR)
		for r := range spaces {
			// A region that has stagnated for the full window is
			// frozen: subsequent joint executions simply replay its
			// current population (free — the execution happens for the
			// still-active regions anyway) and its search ends,
			// bounding the joint run by the slowest-converging region.
			if stagnant[r] >= opt.Stagnation {
				trials[r] = make([]skeleton.Config, len(pops[r]))
				for i := range pops[r] {
					trials[r][i] = pops[r][i].cfg
				}
				continue
			}
			if !opt.DisableRoughSet {
				nonDom, dom := arenas[r].splitPop(pops[r])
				if len(nonDom) >= 3 && stagnant[r] == 0 {
					boxes[r] = roughset.Reduce(spaces[r], nonDom, dom)
				} else {
					boxes[r] = spaces[r].FullBox()
				}
			}
			trials[r] = make([]skeleton.Config, len(pops[r]))
			for i := range pops[r] {
				trials[r][i] = arenas[r].mutate(pops[r][i].cfg, pops[r], i, boxes[r], opt, rng)
			}
		}
		trialObjs := eval.EvaluateJoint(trials)
		for r := range spaces {
			if stagnant[r] >= opt.Stagnation {
				continue // frozen
			}
			improved := false
			for i := range trials[r] {
				if trialObjs[r][i] == nil {
					continue
				}
				if archives[r].Add(pareto.Point{Payload: trials[r][i], Objectives: trialObjs[r][i]}) {
					improved = true
				}
			}
			pops[r] = arenas[r].gde3Select(pops[r], trials[r], trialObjs[r], opt.PopSize)
			if improved {
				stagnant[r] = 0
			} else {
				stagnant[r]++
			}
		}
	}
	out := &MultiResult{Executions: eval.Executions(), Iterations: iters}
	for r := range spaces {
		out.Regions = append(out.Regions, &Result{
			Front:       archives[r].Points(),
			Evaluations: eval.Executions(),
			Iterations:  iters,
		})
	}
	return out, nil
}
