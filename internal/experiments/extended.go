package experiments

import (
	"fmt"
	"io"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/metrics"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/validate"
)

// ExtendedRow compares four strategies for one kernel, scoring each
// front against the brute-force reference with the full indicator set
// (hypervolume, additive epsilon, coverage, spacing, IGD) — an
// extension beyond the paper's Table VI.
type ExtendedRow struct {
	Kernel    string
	Summaries map[string]metrics.Summary // strategy name -> indicators
	Evals     map[string]float64
}

// ExtendedResult is the full extended comparison for one machine.
type ExtendedResult struct {
	Machine    *machine.Machine
	Strategies []string
	Rows       []ExtendedRow
}

// Extended runs brute force, random, NSGA-II and RS-GDE3 on every
// kernel and scores each front against the brute-force front.
func Extended(m *machine.Machine, mode Mode, seed int64) (*ExtendedResult, error) {
	res := &ExtendedResult{
		Machine:    m,
		Strategies: []string{"brute-force", "random", "nsga2", "rs-gde3"},
	}
	for _, k := range kernels.Paper() {
		space := tuningSpace(k, m)

		bfEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		bf, err := optimizer.BruteForceControlled(space, bfEval, bruteForceGrid(k, m, mode), optimizer.Control{})
		if err != nil {
			return nil, err
		}

		rsEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		rs, err := search("rs-gde3", space, rsEval, optimizer.StrategyConfig{Options: optimizer.Options{Seed: seed}})
		if err != nil {
			return nil, err
		}

		nsEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		ns, err := search("nsga2", space, nsEval, optimizer.StrategyConfig{Options: optimizer.Options{Seed: seed}})
		if err != nil {
			return nil, err
		}

		rndEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, err
		}
		rnd, err := randomSearch(space, rndEval, rs.Evaluations, seed+100)
		if err != nil {
			return nil, err
		}

		fronts := map[string]*optimizer.Result{
			"brute-force": bf, "random": rnd, "nsga2": ns, "rs-gde3": rs,
		}
		var pool [][]float64
		for _, r := range fronts {
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
		reference := frontObjectives(bf.Front)
		row := ExtendedRow{
			Kernel:    k.Name,
			Summaries: map[string]metrics.Summary{},
			Evals:     map[string]float64{},
		}
		for name, r := range fronts {
			row.Summaries[name] = metrics.Summarize(frontObjectives(r.Front), reference, ideal, nadir)
			row.Evals[name] = float64(r.Evaluations)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the extended comparison.
func (r *ExtendedResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Extended strategy comparison (%s): indicators vs the brute-force reference front\n", r.Machine.Name)
	header := []string{"Kernel", "Strategy", "E", "|S|", "HV", "eps+", "C(s,bf)", "spacing", "IGD"}
	var rows [][]string
	for _, row := range r.Rows {
		for _, s := range r.Strategies {
			sum := row.Summaries[s]
			rows = append(rows, []string{
				row.Kernel, s,
				fmt.Sprintf("%.0f", row.Evals[s]),
				fmt.Sprint(sum.Size),
				fmt.Sprintf("%.3f", sum.HV),
				fmt.Sprintf("%.3g", sum.Epsilon),
				fmt.Sprintf("%.2f", sum.Covers),
				fmt.Sprintf("%.3g", sum.Spacing),
				fmt.Sprintf("%.3g", sum.IGD),
			})
		}
	}
	renderTable(w, header, rows)
}

// ValidationResult is the model-vs-simulator rank-agreement summary.
type ValidationResult struct {
	Reports []*validate.Report
}

// Validation cross-checks the analytical model against the cache
// simulator for the cheap-to-trace kernels at small problem sizes.
func Validation() (*ValidationResult, error) {
	// Problem sizes are chosen so the tile choice genuinely contrasts
	// at L1 (one matrix exceeds both machines' L1 capacities at N=96);
	// jacobi-2d at a single sweep is intentionally near-flat — the
	// simulator and the model must then agree on "everything ties".
	cases := []struct {
		kernel string
		n      int64
		sets   [][]int64
	}{
		{"mm", 96, [][]int64{{8, 8, 8}, {16, 16, 16}, {32, 32, 32}, {48, 48, 48}, {1, 1, 1}}},
		{"dsyrk", 96, [][]int64{{8, 8, 8}, {16, 16, 16}, {32, 32, 32}, {1, 1, 1}}},
		{"jacobi-2d", 128, [][]int64{{8, 8}, {16, 32}, {64, 64}, {128, 128}}},
	}
	out := &ValidationResult{}
	for _, c := range cases {
		k, err := kernels.ByName(c.kernel)
		if err != nil {
			return nil, err
		}
		for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
			rep, err := validate.CacheModel(k, m, c.n, c.sets, 0)
			if err != nil {
				return nil, err
			}
			out.Reports = append(out.Reports, rep)
		}
	}
	return out, nil
}

// Render writes the rank-agreement table.
func (v *ValidationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Model-vs-simulator validation: Kendall tau rank agreement of per-level traffic")
	header := []string{"Kernel", "Machine", "N", "L1", "L2", "L3"}
	var rows [][]string
	for _, rep := range v.Reports {
		rows = append(rows, []string{
			rep.Kernel, rep.Machine, fmt.Sprint(rep.N),
			fmt.Sprintf("%.2f", rep.RankAgreement["L1"]),
			fmt.Sprintf("%.2f", rep.RankAgreement["L2"]),
			fmt.Sprintf("%.2f", rep.RankAgreement["L3"]),
		})
	}
	renderTable(w, header, rows)
}
