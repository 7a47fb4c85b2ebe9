package experiments

import (
	"fmt"
	"strings"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
)

// raceStrategies are the contenders of the experiment, in registry
// order.
var raceStrategies = []string{"gde3", "motpe", "nsga2", "random", "rs-gde3"}

// RaceComparison runs each of raceStrategies alone on a fresh
// evaluator, then races them all against the largest single-strategy
// budget — so the race never sees more of the space than the
// best-funded single run — and scores every front in one pool.
func RaceComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Comparison, error) {
	// The race needs a budget at which the single strategies are past
	// their steep early gains — racing five contenders at a starvation
	// budget just splits it five ways — so this experiment runs longer
	// than the Table VI searches.
	pop, gens := 24, 24
	if mode == Quick {
		pop, gens = 12, 6
	}
	opt := optimizer.Options{
		PopSize:       pop,
		MaxIterations: gens,
		Stagnation:    gens + 1, // spend the full generation budget
		Seed:          1,
	}
	randomBudget := pop * (gens + 1) // matches the evolutionary proposal volume
	fresh := func(c *cell) (objective.Evaluator, error) {
		sim, err := newEvaluator(c.k, m)
		if err != nil {
			return nil, err
		}
		return objective.NewCachingEvaluator(sim.ObjectiveNames(), pop, sim.EvaluateOne), nil
	}
	var arms []arm
	for _, name := range raceStrategies {
		arms = append(arms, arm{label: name, run: func(c *cell) (*Run, error) {
			eval, err := fresh(c)
			if err != nil {
				return nil, err
			}
			return single(search(name, tuningSpace(c.k, m), eval, optimizer.StrategyConfig{Options: opt, RandomBudget: randomBudget}))
		}})
	}
	budget := 0
	var standings []string
	arms = append(arms, arm{label: "race (all)", run: func(c *cell) (*Run, error) {
		for _, name := range raceStrategies {
			r, err := c.get(name)
			if err != nil {
				return nil, err
			}
			budget = max(budget, r.Results[0].Evaluations)
		}
		eval, err := fresh(c)
		if err != nil {
			return nil, err
		}
		// Contenders run at a quarter of the single-strategy population
		// (successive-halving style: many cheap rungs, depth flows to
		// the survivors), and elimination keeps two survivors so the
		// merged front retains some strategy diversity.
		ropt := opt
		ropt.PopSize = max(pop/4, 4)
		res, err := optimizer.Run(tuningSpace(c.k, m), eval, optimizer.Spec{
			Config: optimizer.StrategyConfig{Options: ropt, RandomBudget: randomBudget},
			Race:   &optimizer.RaceOptions{Strategies: raceStrategies, Interval: 3, Budget: budget, MinSurvivors: 2},
		}, optimizer.Control{})
		if err != nil {
			return nil, err
		}
		for _, s := range res.Standings {
			note := ""
			if s.Eliminated {
				note = fmt.Sprintf(" (out@g%d)", s.EliminatedAt)
			}
			standings = append(standings, fmt.Sprintf("%s %.2g/eval%s", s.Strategy, s.Score, note))
		}
		return single(res, nil)
	}})
	runs, err := compare([]*kernels.Kernel{k}, arms)
	if err != nil {
		return nil, err
	}
	c := table(fmt.Sprintf("Strategy race: %s on %s (race budget %d evaluations, V(S) normalized over all runs)", k.Name, m.Name, budget),
		[]string{"Run", "E", "|S|", "V(S)"}, runs,
		func(r *Run) []string { return append([]string{r.Label}, r.esv("%.2f")...) })
	c.Notes = []string{"race standings: " + strings.Join(standings, ", ")}
	return c, nil
}
