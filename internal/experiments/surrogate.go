package experiments

import (
	"context"
	"fmt"
	"io"
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

// SurrogateRun is one search of the surrogate comparison: its real
// evaluation count, final front, absolute hypervolume against the
// cell's shared reference point, and the evaluation count at which its
// per-generation curve first reached the matching baseline's final
// hypervolume (0 = never reached it).
type SurrogateRun struct {
	Label         string
	Surrogate     bool
	Warm          bool
	Evaluations   int
	FrontSize     int
	HV            float64
	EvalsToTarget int
}

// SurrogateResult compares surrogate-screened searches against
// unscreened baselines for one kernel×machine cell, cold and
// warm-started. The headline metric is evaluations-to-equal-
// hypervolume: how many real evaluations each run needs before its
// front's hypervolume matches the baseline's final one.
type SurrogateResult struct {
	Kernel  string
	Machine string
	// Runs hold base-cold, surrogate-cold, base-warm, surrogate-warm.
	Runs []SurrogateRun
	// SpeedupCold/Warm = baseline EvalsToTarget / surrogate
	// EvalsToTarget (0 when the surrogate never reached the target).
	SpeedupCold float64
	SpeedupWarm float64
	// NeverWorseCold/Warm report that at its full (equal) budget the
	// surrogate run's final hypervolume is no worse than the baseline's.
	NeverWorseCold bool
	NeverWorseWarm bool
}

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

// SurrogateComparison runs the four-way experiment for one cell:
// baseline and screened searches from scratch, then both again warm —
// their caches primed with a different-seed priming run's evaluations
// (which also train the screened run's model before its first
// generation) and their populations seeded from that run's front.
// Everything is deterministic: fixed seeds, simulated evaluators.
func SurrogateComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*SurrogateResult, error) {
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
	primeEval.AddObserver(func(cfgs []skeleton.Config, objs [][]float64) {
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

	// Each screened run gets the same real-evaluation budget as its
	// baseline — the screen admits only a fraction of each batch, so
	// the equal budget stretches over more generations (capped well
	// above what the budget can consume). The collector cancels at the
	// generation barrier where the budget is spent.
	runOnce := func(screened, warm bool, budget int) (*optimizer.Result, *curveCollector, error) {
		eval, err := newEvaluator(k, m)
		if err != nil {
			return nil, nil, err
		}
		var e objective.Evaluator = eval
		var scr *surrogate.Screened
		if screened {
			// Screen conservatively: wait ~4 generations of training
			// data before judging candidates, and keep a third of the
			// admitted slots for pure exploration — a cold model that
			// screens too early locks the search into its first wrong
			// guess.
			scr, err = surrogate.NewScreened(space, eval, surrogate.Options{
				TopK:        topK,
				MinSamples:  4 * pop,
				ExploreFrac: 1.0 / 3,
				Features:    fmap,
			})
			if err != nil {
				return nil, nil, err
			}
			defer scr.Close()
			e = scr
		}
		maxGens := gens
		if screened {
			maxGens = gens * 6
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
	res := &SurrogateResult{Kernel: k.Name, Machine: m.Name}
	var curves []*curveCollector
	var finals [][]pareto.Point
	for i, s := range specs {
		budget := 0
		if s.screened {
			// The matching baseline ran one iteration earlier.
			budget = res.Runs[i-1].Evaluations
		}
		r, col, err := runOnce(s.screened, s.warm, budget)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.label, err)
		}
		res.Runs = append(res.Runs, SurrogateRun{
			Label:       s.label,
			Surrogate:   s.screened,
			Warm:        s.warm,
			Evaluations: r.Evaluations,
			FrontSize:   len(r.Front),
		})
		curves = append(curves, col)
		finals = append(finals, r.Front)
	}

	// One reference point per cell, from the pooled final fronts, so
	// every hypervolume — final and per-generation — is comparable.
	ref, err := pareto.SharedReference(finals...)
	if err != nil {
		return nil, err
	}
	hvOf := func(front []pareto.Point) (float64, error) {
		return pareto.Hypervolume(frontObjectives(front), ref)
	}
	for i := range res.Runs {
		hv, err := hvOf(finals[i])
		if err != nil {
			return nil, err
		}
		res.Runs[i].HV = hv
	}

	// Evaluations-to-target: first curve point whose hypervolume
	// reaches the matching baseline's final one (cold runs chase the
	// cold baseline, warm runs the warm one). A baseline chases its own
	// final value, so its attainment is exact — the generation where it
	// actually achieved the quality it delivers. A surrogate run matches
	// a *different* run's quality, and the evaluator's measurements
	// carry 1% deterministic noise (NoiseAmp), so matching within that
	// noise is matching.
	const exact = 1 - 1e-9
	for i := range res.Runs {
		target := res.Runs[0].HV
		if res.Runs[i].Warm {
			target = res.Runs[2].HV
		}
		slack := exact
		if res.Runs[i].Surrogate {
			slack = 1 - NoiseAmp
		}
		for _, cp := range curves[i].points {
			hv, err := hvOf(cp.front)
			if err != nil {
				return nil, err
			}
			if hv >= target*slack {
				res.Runs[i].EvalsToTarget = cp.evals
				break
			}
		}
	}
	speedup := func(base, surr SurrogateRun) float64 {
		if base.EvalsToTarget == 0 || surr.EvalsToTarget == 0 {
			return 0
		}
		return float64(base.EvalsToTarget) / float64(surr.EvalsToTarget)
	}
	res.SpeedupCold = speedup(res.Runs[0], res.Runs[1])
	res.SpeedupWarm = speedup(res.Runs[2], res.Runs[3])
	res.NeverWorseCold = res.Runs[1].HV >= res.Runs[0].HV*(1-NoiseAmp)
	res.NeverWorseWarm = res.Runs[3].HV >= res.Runs[2].HV*(1-NoiseAmp)
	return res, nil
}

// Render writes the four-run table plus the cell's speedups.
func (r *SurrogateResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Surrogate pre-screening: %s on %s (HV against the cell's shared reference)\n",
		r.Kernel, r.Machine)
	header := []string{"Run", "E", "|S|", "HV", "E to target"}
	var rows [][]string
	for _, run := range r.Runs {
		toTarget := "never"
		if run.EvalsToTarget > 0 {
			toTarget = fmt.Sprint(run.EvalsToTarget)
		}
		rows = append(rows, []string{
			run.Label,
			fmt.Sprint(run.Evaluations),
			fmt.Sprint(run.FrontSize),
			fmt.Sprintf("%.4g", run.HV),
			toTarget,
		})
	}
	renderTable(w, header, rows)
	fmt.Fprintf(w, "evaluations-to-equal-HV speedup: cold %.2fx, warm %.2fx\n",
		r.SpeedupCold, r.SpeedupWarm)
}
