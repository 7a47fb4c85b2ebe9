package experiments

import (
	"fmt"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/metrics"
	"autotune/internal/optimizer"
)

// Extended runs brute force, random, NSGA-II and RS-GDE3 on every paper
// kernel and scores each front against the brute-force front with the
// full indicator set (hypervolume, additive epsilon, coverage, spacing,
// IGD) — an extension beyond the paper's Table VI.
func Extended(m *machine.Machine, mode Mode, seed int64) (*Comparison, error) {
	strategy := func(name string) func(c *cell) (*Run, error) {
		return func(c *cell) (*Run, error) {
			return single(searchFresh(c.k, m, name, optimizer.StrategyConfig{Options: optimizer.Options{Seed: seed}}))
		}
	}
	arms := []arm{
		{label: "brute-force", run: func(c *cell) (*Run, error) { return single(bruteForce(c.k, m, mode)) }},
		{label: "random", run: func(c *cell) (*Run, error) {
			rs, err := c.get("rs-gde3")
			if err != nil {
				return nil, err
			}
			return single(searchFresh(c.k, m, "random", optimizer.StrategyConfig{
				Options: optimizer.Options{Seed: seed + 100}, RandomBudget: rs.Results[0].Evaluations,
			}))
		}},
		{label: "nsga2", run: strategy("nsga2")},
		{label: "rs-gde3", run: strategy("rs-gde3")},
	}
	runs, err := compare(kernels.Paper(), arms)
	if err != nil {
		return nil, err
	}
	var reference [][]float64 // the brute-force front, the first arm of each kernel
	var serr error
	c := table(fmt.Sprintf("Extended strategy comparison (%s): indicators vs the brute-force reference front", m.Name),
		[]string{"Kernel", "Strategy", "E", "|S|", "HV", "eps+", "C(s,bf)", "spacing", "IGD"}, runs,
		func(r *Run) []string {
			front := frontObjectives(r.Results[0].Front)
			if r.Label == "brute-force" {
				reference = front
			}
			s, err := metrics.Summarize(front, reference)
			if err != nil && serr == nil {
				serr = fmt.Errorf("experiments: %s %s: %w", r.Kernel, r.Label, err)
			}
			return append(append([]string{r.Kernel, r.Label}, r.esv("%.3f")...),
				fmt.Sprintf("%.3g", s.Epsilon),
				fmt.Sprintf("%.2f", s.Covers),
				fmt.Sprintf("%.3g", s.Spacing),
				fmt.Sprintf("%.3g", s.IGD))
		})
	if serr != nil {
		return nil, serr
	}
	return c, nil
}
