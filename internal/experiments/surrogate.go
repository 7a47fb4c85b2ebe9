package experiments

import (
	"context"
	"fmt"
	"sync"

	"autotune/internal/features"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/surrogate"
)

// curvePoint is one generation boundary: cumulative real evaluations
// and the merged non-dominated front at that moment.
type curvePoint struct {
	evals int
	front []pareto.Point
}

// curveCollector records the E→front curve through the optimizer's
// checkpoint hook — every snapshot is a generation barrier. When a
// budget is set, the collector cancels the search's context once the
// snapshot's evaluation count reaches it; the optimizer notices at the
// very next barrier, so the stop is deterministic (it depends only on
// the snapshot, never on timing).
type curveCollector struct {
	points []curvePoint
	budget int
	cancel func()
}

func (c *curveCollector) Save(s *optimizer.Snapshot) error {
	var pts []pareto.Point
	for _, isl := range s.States {
		for _, m := range isl.Archive {
			if m.Objs == nil {
				continue
			}
			pts = append(pts, pareto.Point{Objectives: m.Objs})
		}
	}
	c.points = append(c.points, curvePoint{evals: s.Evaluations, front: pareto.NonDominated(pts)})
	if c.budget > 0 && s.Evaluations >= c.budget && c.cancel != nil {
		c.cancel()
	}
	return nil
}

// primedEval is one captured evaluation from the priming run, replayed
// into warm runs' caches.
type primedEval struct {
	cfg  skeleton.Config
	objs []float64
}

// SurrogateComparison compares surrogate-screened searches against
// unscreened baselines for one kernel×machine cell: both from scratch,
// then both again warm — their caches primed with a different-seed
// priming run's evaluations (which also train the screened run's model
// before its first generation) and their populations seeded from that
// run's front. A screened run gets the real-evaluation budget of its
// baseline. Hypervolumes are absolute, against one reference point
// pooled from the four final fronts; the headline is
// evaluations-to-equal-hypervolume: how many real evaluations a run
// needs before its front matches its baseline's final one.
// Everything is deterministic: fixed seeds, simulated evaluators.
func SurrogateComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Comparison, error) {
	pop, gens, topK := 24, 24, 6
	if mode == Quick {
		pop, gens, topK = 12, 8, 3
	}
	space := tuningSpace(k, m)
	fmap := map[string]float64{}
	if fs, err := features.Extract(k.IR(k.DefaultN)); err == nil {
		fmap = fs.AsMap()
	}

	// Priming run: a shorter search under a different seed, whose
	// evaluations and front stand in for a populated tuning database.
	primeEval, err := newEvaluator(k, m)
	if err != nil {
		return nil, err
	}
	// The observer is handed each evaluated batch by the goroutine that
	// evaluated it; the lock keeps the capture safe should batches ever
	// run concurrently. Nothing downstream depends on capture order:
	// cache primes are keyed and the screen trains primed records in
	// canonical order at barriers.
	var primedMu sync.Mutex
	var primed []primedEval
	primeEval.AddObserver(func(cfgs []skeleton.Config, _ []string, objs [][]float64) {
		primedMu.Lock()
		defer primedMu.Unlock()
		for i, cfg := range cfgs {
			primed = append(primed, primedEval{
				cfg:  append(skeleton.Config(nil), cfg...),
				objs: objs[i],
			})
		}
	})
	pres, err := search("rs-gde3", space, primeEval, optimizer.StrategyConfig{Options: optimizer.Options{
		PopSize: pop, MaxIterations: (gens + 1) / 2, Stagnation: gens + 2, Seed: 7,
	}})
	if err != nil {
		return nil, fmt.Errorf("experiments: priming run: %w", err)
	}
	var seedPop []skeleton.Config
	for _, p := range pres.Front {
		if len(seedPop) == pop/2 {
			break
		}
		seedPop = append(seedPop, p.Payload.(skeleton.Config))
	}

	// The screen admits only a fraction of each batch, so a screened
	// run's equal budget stretches over more generations (capped well
	// above what the budget can consume); its collector cancels at the
	// generation barrier where the budget is spent.
	runOnce := func(screened, warm bool, budget int) (*optimizer.Result, *curveCollector, error) {
		eval, err := newEvaluator(k, m)
		if err != nil {
			return nil, nil, err
		}
		var e objective.Evaluator = eval
		maxGens := gens
		if screened {
			// Screen conservatively: wait ~4 generations of training
			// data before judging candidates, and keep a third of the
			// admitted slots for pure exploration — a cold model that
			// screens too early locks the search into its first wrong
			// guess.
			scr, err := surrogate.NewScreened(space, eval, surrogate.Options{
				TopK:        topK,
				MinSamples:  4 * pop,
				ExploreFrac: 1.0 / 3,
				Features:    fmap,
			})
			if err != nil {
				return nil, nil, err
			}
			defer scr.Close()
			e, maxGens = scr, gens*6
		}
		opt := optimizer.Options{
			PopSize: pop, MaxIterations: maxGens, Stagnation: maxGens + 2, Seed: 1,
		}
		if warm {
			// Prime after the screen attached: the prime-observer
			// channel turns stored history into training data.
			for _, p := range primed {
				eval.Prime(p.cfg, p.objs)
			}
			opt.InitialPopulation = seedPop
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		col := &curveCollector{budget: budget, cancel: cancel}
		res, err := optimizer.Run(space, e, optimizer.Spec{Strategy: "rs-gde3", Config: optimizer.StrategyConfig{Options: opt}},
			optimizer.Control{Ctx: ctx, Checkpointer: col})
		return res, col, err
	}

	specs := []struct {
		label          string
		screened, warm bool
	}{
		{"baseline cold", false, false},
		{"surrogate cold", true, false},
		{"baseline warm", false, true},
		{"surrogate warm", true, true},
	}
	// baseline indexes the run a run is measured against: the cold
	// baseline for cold runs, the warm one for warm runs.
	baseline := func(i int) int {
		if specs[i].warm {
			return 2
		}
		return 0
	}
	curves := make([]*curveCollector, len(specs))
	var arms []arm
	for i, s := range specs {
		arms = append(arms, arm{label: s.label, pool: -1, run: func(c *cell) (*Run, error) {
			budget := 0
			if s.screened {
				base, err := c.get(specs[baseline(i)].label)
				if err != nil {
					return nil, err
				}
				budget = base.Results[0].Evaluations
			}
			res, col, err := runOnce(s.screened, s.warm, budget)
			curves[i] = col
			return single(res, err)
		}})
	}
	runs, err := compare([]*kernels.Kernel{k}, arms)
	if err != nil {
		return nil, err
	}

	var finals [][]pareto.Point
	for _, r := range runs {
		finals = append(finals, r.Results[0].Front)
	}
	ref, err := pareto.SharedReference(finals...)
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if r.V, err = pareto.Hypervolume(frontObjectives(r.Results[0].Front), ref); err != nil {
			return nil, err
		}
	}
	// Evaluations-to-target: the first curve point whose hypervolume
	// reaches the baseline's final one. A baseline chases its own final
	// value, so its attainment is exact — the generation where it
	// actually achieved the quality it delivers. A surrogate run matches
	// a *different* run's quality, and the evaluator's measurements
	// carry 1% deterministic noise (noiseAmp), so matching within that
	// noise is matching.
	toTarget := make([]int, len(runs))
	for i, r := range runs {
		slack := 1 - 1e-9
		if specs[i].screened {
			slack = 1 - noiseAmp
		}
		for _, cp := range curves[i].points {
			hv, err := pareto.Hypervolume(frontObjectives(cp.front), ref)
			if err != nil {
				return nil, err
			}
			if hv >= runs[baseline(i)].V*slack {
				toTarget[i] = cp.evals
				break
			}
		}
		r.Cols = []string{"never"}
		if toTarget[i] > 0 {
			r.Cols[0] = fmt.Sprint(toTarget[i])
		}
	}
	speedup := func(surr int) float64 {
		base := toTarget[baseline(surr)]
		if base == 0 || toTarget[surr] == 0 {
			return 0
		}
		return float64(base) / float64(toTarget[surr])
	}
	c := table(fmt.Sprintf("Surrogate pre-screening: %s on %s (HV against the cell's shared reference)", k.Name, m.Name),
		[]string{"Run", "E", "|S|", "HV", "E to target"}, runs,
		func(r *Run) []string { return append(append([]string{r.Label}, r.esv("%.4g")...), r.Cols...) })
	c.Notes = []string{fmt.Sprintf("evaluations-to-equal-HV speedup: cold %.2fx, warm %.2fx", speedup(1), speedup(3))}
	return c, nil
}
