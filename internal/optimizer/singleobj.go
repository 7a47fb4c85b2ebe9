// Single-objective differential evolution: the classic DE/rand/1/bin
// scheme minimizing a fixed scalarization of the objectives. It exists
// as the contrast the paper's introduction draws — "most of these
// methods ... focus exclusively on a single optimization objective" —
// so the repository can quantify what multi-objective search buys:
// covering the whole trade-off with ONE run instead of re-running a
// single-objective tuner for every weight vector of interest.

package optimizer

import (
	"errors"
	"math"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// SingleObjectiveDE minimizes the weighted sum Σ w_c·f_c over the
// space using DE/rand/1/bin with the same CR/F/stagnation defaults as
// RS-GDE3. It returns a Result whose front holds exactly the single
// best configuration found (payload skeleton.Config).
func SingleObjectiveDE(space skeleton.Space, eval objective.Evaluator, weights []float64, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		return nil, errors.New("optimizer: single-objective DE needs weights")
	}
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, errors.New("optimizer: weights must be non-negative")
		}
	}
	scalar := func(objs []float64) float64 {
		if objs == nil || len(objs) != len(weights) {
			return math.Inf(1)
		}
		s := 0.0
		for c, w := range weights {
			s += w * objs[c]
		}
		return s
	}

	rng := stats.NewRand(opt.Seed)
	type member struct {
		cfg   skeleton.Config
		objs  []float64
		score float64
	}
	pop := make([]member, opt.PopSize)
	cfgs := make([]skeleton.Config, opt.PopSize)
	for i := range cfgs {
		cfgs[i] = space.Random(rng)
	}
	objs := eval.Evaluate(cfgs)
	best := member{score: math.Inf(1)}
	for i := range pop {
		pop[i] = member{cfg: cfgs[i], objs: objs[i], score: scalar(objs[i])}
		if pop[i].score < best.score {
			best = pop[i]
		}
	}

	box := space.FullBox()
	stagnant, iters := 0, 0
	for iters = 0; iters < opt.MaxIterations && stagnant < opt.Stagnation; iters++ {
		trials := make([]skeleton.Config, len(pop))
		for i := range pop {
			var idx [3]int
			pickDistinct(rng, len(pop), i, idx[:])
			b, c, d := pop[idx[0]].cfg, pop[idx[1]].cfg, pop[idx[2]].cfg
			dim := len(pop[i].cfg)
			r := make([]float64, dim)
			forced := rng.Intn(dim)
			for g := 0; g < dim; g++ {
				if rng.Float64() < opt.CR || g == forced {
					r[g] = float64(b[g]) + opt.F*float64(c[g]-d[g])
				} else {
					r[g] = float64(pop[i].cfg[g])
				}
			}
			trials[i] = box.ClosestTo(r)
		}
		trialObjs := eval.Evaluate(trials)
		improved := false
		for i := range trials {
			score := scalar(trialObjs[i])
			if score <= pop[i].score {
				pop[i] = member{cfg: trials[i], objs: trialObjs[i], score: score}
			}
			if score < best.score {
				best = member{cfg: trials[i], objs: trialObjs[i], score: score}
				improved = true
			}
		}
		if improved {
			stagnant = 0
		} else {
			stagnant++
		}
	}
	if math.IsInf(best.score, 1) {
		return nil, errors.New("optimizer: single-objective DE found no valid configuration")
	}
	return &Result{
		Front: []pareto.Point{{
			Payload:    best.cfg,
			Objectives: append([]float64(nil), best.objs...),
		}},
		Evaluations: eval.Evaluations(),
		Iterations:  iters,
	}, nil
}
