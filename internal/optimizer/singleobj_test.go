// Single-objective differential evolution: the classic DE/rand/1/bin
// scheme minimizing a fixed scalarization of the objectives. It lives
// in this test file as the contrast the paper's introduction draws —
// "most of these methods ... focus exclusively on a single optimization
// objective" — so the repository can quantify what multi-objective
// search buys: covering the whole trade-off with ONE run instead of
// re-running a single-objective tuner for every weight vector of
// interest.

package optimizer

import (
	"errors"
	"math"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// singleObjectiveDE minimizes the weighted sum Σ w_c·f_c over the
// space using DE/rand/1/bin with the same CR/F/stagnation defaults as
// RS-GDE3. It returns a Result whose front holds exactly the single
// best configuration found (payload skeleton.Config).
func singleObjectiveDE(space skeleton.Space, eval objective.Evaluator, weights []float64, opt Options) (*Result, error) {
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
			trials[i] = box.AppendClosestTo(nil, r)
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

func TestSingleObjectiveDEFindsWeightedOptimum(t *testing.T) {
	// With all weight on f1 = x², the optimum is x = 0.
	eval := newFuncEvaluator(schaffer)
	res, err := singleObjectiveDE(schafferSpace(), eval, []float64{1, 0}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != 1 {
		t.Fatalf("front = %d points, want exactly 1", len(res.Front))
	}
	x := res.Front[0].Payload.(skeleton.Config)[0]
	if x < -20 || x > 20 { // |x/100| close to 0
		t.Fatalf("x = %d, want near 0", x)
	}
	// With all weight on f2 = (x-2)², the optimum is x = 200.
	res2, err := singleObjectiveDE(schafferSpace(), newFuncEvaluator(schaffer), []float64{0, 1}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x2 := res2.Front[0].Payload.(skeleton.Config)[0]
	if x2 < 180 || x2 > 220 {
		t.Fatalf("x = %d, want near 200", x2)
	}
}

func TestSingleObjectiveDEValidation(t *testing.T) {
	eval := newFuncEvaluator(schaffer)
	if _, err := singleObjectiveDE(skeleton.Space{}, eval, []float64{1}, Options{}); err == nil {
		t.Error("invalid space accepted")
	}
	if _, err := singleObjectiveDE(schafferSpace(), eval, nil, Options{}); err == nil {
		t.Error("missing weights accepted")
	}
	if _, err := singleObjectiveDE(schafferSpace(), eval, []float64{-1, 0}, Options{}); err == nil {
		t.Error("negative weight accepted")
	}
	// All evaluations failing yields an error.
	failing := newFuncEvaluator(func(skeleton.Config) []float64 { return nil })
	if _, err := singleObjectiveDE(schafferSpace(), failing, []float64{1, 0}, Options{Seed: 2, MaxIterations: 3}); err == nil {
		t.Error("all-failing evaluator should error")
	}
}

// The paper's motivation, quantified: covering K trade-off points with
// a single-objective tuner costs ~K separate runs, while one RS-GDE3
// run covers them all. With equal total budget, the multi-objective
// front must weakly dominate the set of single-objective results.
func TestMultiObjectiveCoversWeightSweep(t *testing.T) {
	weights := [][]float64{{1, 0}, {0.75, 0.25}, {0.5, 0.5}, {0.25, 0.75}, {0, 1}}
	var soPoints [][]float64
	soEvals := 0
	for i, w := range weights {
		eval := newFuncEvaluator(schaffer)
		res, err := singleObjectiveDE(schafferSpace(), eval, w, Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		soPoints = append(soPoints, res.Front[0].Objectives)
		soEvals += res.Evaluations
	}
	mo, err := search("rs-gde3", schafferSpace(), newFuncEvaluator(schaffer), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("single-objective sweep: %d evals for %d points; RS-GDE3: %d evals for %d points",
		soEvals, len(soPoints), mo.Evaluations, len(mo.Front))
	// Every single-objective result is weakly dominated by (or ties
	// with) some point of the multi-objective front, within tolerance.
	for i, sp := range soPoints {
		covered := false
		for _, p := range mo.Front {
			if pareto.WeaklyDominates(p.Objectives, []float64{sp[0] + 0.05, sp[1] + 0.05}) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("weight set %d result %v not covered by the multi-objective front", i, sp)
		}
	}
	// And the multi-objective run used fewer evaluations than the
	// whole sweep.
	if mo.Evaluations >= soEvals {
		t.Errorf("RS-GDE3 evals %d not below sweep total %d", mo.Evaluations, soEvals)
	}
}
