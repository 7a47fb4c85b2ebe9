package experiments

import (
	"fmt"
	"io"
	"time"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// IslandRun is one row of the island-model comparison: a search
// configuration with its wall-clock time, evaluation count and
// normalized hypervolume.
type IslandRun struct {
	Label       string
	Islands     int
	Generations int
	WallClock   time.Duration
	Evaluations int
	FrontSize   int
	HV          float64
}

// IslandResult compares the serial RS-GDE3 against island-parallel
// runs at an equal evaluation budget (the islands trade sequential
// generation depth for parallel width, so the serial run gets W times
// the generations of a W-island run).
type IslandResult struct {
	Kernel  *kernels.Kernel
	Machine *machine.Machine
	// EvalDelay is the artificial per-evaluation latency making the
	// evaluator "expensive", as real measured tuning is.
	EvalDelay time.Duration
	Runs      []IslandRun
}

// IslandComparison runs the serial-vs-islands experiment for one
// kernel on one machine. Every evaluation is slowed by a fixed delay
// to emulate measured tuning; the serial configuration and each
// W-island configuration receive the same generation budget in total
// (serial W×G generations vs W islands × G generations), so fronts are
// comparable per evaluation while wall-clock exposes the parallel
// speedup.
func IslandComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*IslandResult, error) {
	delay := 5 * time.Millisecond
	gens := 4
	pop := 24
	if mode == Quick {
		delay = 2 * time.Millisecond
		gens = 2
		pop = 12
	}
	islandCounts := []int{2, 4}

	res := &IslandResult{Kernel: k, Machine: m, EvalDelay: delay}
	space := tuningSpace(k, m)

	type runSpec struct {
		label   string
		islands int
		gens    int
	}
	specs := []runSpec{{label: "serial", islands: 1}}
	for _, w := range islandCounts {
		specs = append(specs, runSpec{label: fmt.Sprintf("islands W=%d", w), islands: w})
	}
	maxW := islandCounts[len(islandCounts)-1]
	for i := range specs {
		// Equal budget: W islands run gens generations each; the serial
		// run gets maxW×gens generations. Intermediate W scale so every
		// run performs the same number of population evaluations.
		specs[i].gens = maxW * gens / max(specs[i].islands, 1)
	}

	var pool [][]float64
	var fronts [][]pareto.Point
	for _, spec := range specs {
		sim, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		// Ample evaluator parallelism (every island's whole batch can be
		// in flight at once): the experiment isolates the benefit of
		// trading sequential generation depth for parallel width.
		slow := objective.NewCachingEvaluator(sim.ObjectiveNames(), maxW*pop,
			func(cfg skeleton.Config) []float64 {
				time.Sleep(delay)
				return sim.EvaluateOne(cfg)
			})
		opt := optimizer.Options{
			PopSize:       pop,
			MaxIterations: spec.gens,
			Stagnation:    spec.gens + 1, // run the full budget
			Seed:          1,
		}
		run := optimizer.Spec{Strategy: "rs-gde3", Config: optimizer.StrategyConfig{Options: opt}}
		if spec.islands > 1 {
			run.Islands = &optimizer.IslandOptions{Islands: spec.islands, MigrationInterval: 2}
		}
		start := time.Now()
		r, err := optimizer.Run(space, slow, run, optimizer.Control{})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		res.Runs = append(res.Runs, IslandRun{
			Label:       spec.label,
			Islands:     spec.islands,
			Generations: spec.gens,
			WallClock:   elapsed,
			Evaluations: r.Evaluations,
			FrontSize:   len(r.Front),
		})
		fronts = append(fronts, r.Front)
		pool = append(pool, frontObjectives(r.Front)...)
	}

	ideal, nadir, err := pareto.IdealNadir(pool)
	if err != nil {
		return nil, err
	}
	for i := range ideal {
		if nadir[i] <= ideal[i] {
			nadir[i] = ideal[i] + 1e-12
		}
	}
	for i, f := range fronts {
		hv, err := normalizedHV(f, ideal, nadir)
		if err != nil {
			return nil, err
		}
		res.Runs[i].HV = hv
	}
	return res, nil
}

// Render writes the comparison table.
func (r *IslandResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Island-model comparison: %s on %s (%s per evaluation, equal generation budget)\n",
		r.Kernel.Name, r.Machine.Name, r.EvalDelay)
	header := []string{"Run", "W", "Gens", "Wall clock", "Speedup", "E", "|S|", "V(S)"}
	var rows [][]string
	serial := r.Runs[0].WallClock
	for _, run := range r.Runs {
		speedup := "1.00x"
		if run.WallClock > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(serial)/float64(run.WallClock))
		}
		rows = append(rows, []string{
			run.Label,
			fmt.Sprint(run.Islands),
			fmt.Sprint(run.Generations),
			run.WallClock.Round(time.Millisecond).String(),
			speedup,
			fmt.Sprint(run.Evaluations),
			fmt.Sprint(run.FrontSize),
			fmt.Sprintf("%.2f", run.HV),
		})
	}
	renderTable(w, header, rows)
}
