package experiments

import (
	"fmt"
	"time"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
)

// IslandComparison compares the serial RS-GDE3 against island-parallel
// runs of one kernel on one machine. Every evaluation is slowed by a
// fixed delay to emulate measured tuning, and every run gets the same
// generation budget in total (serial W×G generations vs W islands × G
// generations), so fronts are comparable per evaluation while the wall
// clock exposes the parallel speedup.
func IslandComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Comparison, error) {
	delay, gens, pop := 5*time.Millisecond, 4, 24
	if mode == Quick {
		delay, gens, pop = 2*time.Millisecond, 2, 12
	}
	const maxW = 4
	var serial time.Duration
	var arms []arm
	for _, w := range []int{1, 2, maxW} {
		label := "serial"
		if w > 1 {
			label = fmt.Sprintf("islands W=%d", w)
		}
		g := maxW * gens / w
		arms = append(arms, arm{label: label, run: func(c *cell) (*Run, error) {
			sim, err := newEvaluator(c.k, m)
			if err != nil {
				return nil, err
			}
			// Ample evaluator parallelism (every island's whole batch can
			// be in flight at once): the experiment isolates the benefit
			// of trading sequential generation depth for parallel width.
			slow := objective.NewCachingEvaluator(sim.ObjectiveNames(), maxW*pop,
				func(cfg skeleton.Config) []float64 {
					time.Sleep(delay)
					return sim.EvaluateOne(cfg)
				})
			spec := optimizer.Spec{Strategy: "rs-gde3", Config: optimizer.StrategyConfig{Options: optimizer.Options{
				PopSize: pop, MaxIterations: g, Stagnation: g + 1, Seed: 1, // run the full budget
			}}}
			if w > 1 {
				spec.Islands = &optimizer.IslandOptions{Islands: w, MigrationInterval: 2}
			}
			start := time.Now()
			res, err := optimizer.Run(tuningSpace(c.k, m), slow, spec, optimizer.Control{})
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			if w == 1 {
				serial = wall
			}
			speedup := "1.00x"
			if wall > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(serial)/float64(wall))
			}
			return &Run{Results: []*optimizer.Result{res}, Cols: []string{
				fmt.Sprint(w), fmt.Sprint(g), wall.Round(time.Millisecond).String(), speedup,
			}}, nil
		}})
	}
	runs, err := compare([]*kernels.Kernel{k}, arms)
	if err != nil {
		return nil, err
	}
	return table(fmt.Sprintf("Island-model comparison: %s on %s (%s per evaluation, equal generation budget)", k.Name, m.Name, delay),
		[]string{"Run", "W", "Gens", "Wall clock", "Speedup", "E", "|S|", "V(S)"}, runs,
		func(r *Run) []string { return append(append([]string{r.Label}, r.Cols...), r.esv("%.2f")...) }), nil
}
