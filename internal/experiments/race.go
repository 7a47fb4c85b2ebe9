package experiments

import (
	"fmt"
	"io"
	"strings"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
)

// RaceRun is one row of the strategy-racing comparison: a single
// strategy at full budget, or the race at the same global budget.
type RaceRun struct {
	Label       string
	Evaluations int
	FrontSize   int
	HV          float64
}

// RaceComparisonResult compares each registered strategy run alone
// against the racing meta-optimizer at an equal evaluation budget.
type RaceComparisonResult struct {
	Kernel  *kernels.Kernel
	Machine *machine.Machine
	// Budget is the race's evaluation cap: the largest E any single
	// strategy consumed, so the race never sees more of the space than
	// the best-funded single run.
	Budget int
	Runs   []RaceRun
	// Standings is the race's internal leaderboard (best first).
	Standings []optimizer.Standing
}

// raceStrategies are the contenders of the experiment, in registry
// order.
var raceStrategies = []string{"gde3", "motpe", "nsga2", "random", "rs-gde3"}

// RaceComparison runs every registered strategy alone on a fresh
// evaluator, then races them all against the largest single-strategy
// budget, and scores every front against pooled ideal/nadir bounds —
// the experiment behind `cmd/repro -exp race`.
func RaceComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*RaceComparisonResult, error) {
	// The race needs a budget at which the single strategies are past
	// their steep early gains — racing five contenders at a starvation
	// budget just splits it five ways — so this experiment runs longer
	// than the Table VI searches.
	pop, gens := 24, 24
	if mode == Quick {
		pop, gens = 12, 6
	}
	res := &RaceComparisonResult{Kernel: k, Machine: m}
	space := tuningSpace(k, m)
	opt := optimizer.Options{
		PopSize:       pop,
		MaxIterations: gens,
		Stagnation:    gens + 1, // spend the full generation budget
		Seed:          1,
	}
	randomBudget := pop * (gens + 1) // matches the evolutionary proposal volume

	freshEval := func() (objective.Evaluator, error) {
		sim, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		return objective.NewCachingEvaluator(sim.ObjectiveNames(), pop, sim.EvaluateOne), nil
	}
	var fronts [][]pareto.Point
	var pool [][]float64
	for _, name := range raceStrategies {
		eval, err := freshEval()
		if err != nil {
			return nil, err
		}
		r, err := search(name, space, eval, optimizer.StrategyConfig{Options: opt, RandomBudget: randomBudget})
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, RaceRun{
			Label:       name,
			Evaluations: r.Evaluations,
			FrontSize:   len(r.Front),
		})
		fronts = append(fronts, r.Front)
		pool = append(pool, frontObjectives(r.Front)...)
		if r.Evaluations > res.Budget {
			res.Budget = r.Evaluations
		}
	}

	eval, err := freshEval()
	if err != nil {
		return nil, err
	}
	// Contenders run at a quarter of the single-strategy population
	// (successive-halving style: many cheap rungs, depth flows to the
	// survivors), and elimination keeps two survivors so the merged
	// front retains some strategy diversity.
	rpop := pop / 4
	if rpop < 4 {
		rpop = 4
	}
	ropt := opt
	ropt.PopSize = rpop
	rr, err := optimizer.RaceControlled(space, eval, optimizer.StrategyConfig{
		Options:      ropt,
		RandomBudget: randomBudget,
	}, optimizer.RaceOptions{
		Strategies:   raceStrategies,
		Interval:     3,
		Budget:       res.Budget,
		MinSurvivors: 2,
	}, optimizer.Control{})
	if err != nil {
		return nil, err
	}
	res.Runs = append(res.Runs, RaceRun{
		Label:       "race (all)",
		Evaluations: rr.Evaluations,
		FrontSize:   len(rr.Front),
	})
	fronts = append(fronts, rr.Front)
	pool = append(pool, frontObjectives(rr.Front)...)
	res.Standings = rr.Standings

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

// Render writes the comparison table and the race's leaderboard.
func (r *RaceComparisonResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Strategy race: %s on %s (race budget %d evaluations, V(S) normalized over all runs)\n",
		r.Kernel.Name, r.Machine.Name, r.Budget)
	header := []string{"Run", "E", "|S|", "V(S)"}
	var rows [][]string
	for _, run := range r.Runs {
		rows = append(rows, []string{
			run.Label,
			fmt.Sprint(run.Evaluations),
			fmt.Sprint(run.FrontSize),
			fmt.Sprintf("%.2f", run.HV),
		})
	}
	renderTable(w, header, rows)
	var parts []string
	for _, s := range r.Standings {
		note := ""
		if s.Eliminated {
			note = fmt.Sprintf(" (out@g%d)", s.EliminatedAt)
		}
		parts = append(parts, fmt.Sprintf("%s %.2g/eval%s", s.Strategy, s.Score, note))
	}
	fmt.Fprintf(w, "race standings: %s\n", strings.Join(parts, ", "))
}
