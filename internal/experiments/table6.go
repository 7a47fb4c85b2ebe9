package experiments

import (
	"fmt"
	"io"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
)

// MethodMetrics holds the three Table VI metrics for one strategy:
// evaluation count E, solution count |S| and hypervolume V(S).
// Stochastic strategies report means over repetitions.
type MethodMetrics struct {
	E float64
	S float64
	V float64
}

// Table6Row compares the three strategies for one kernel on one
// machine.
type Table6Row struct {
	Kernel     string
	BruteForce MethodMetrics
	Random     MethodMetrics
	RSGDE3     MethodMetrics
}

// Table6Result is the full strategy comparison for one machine.
type Table6Result struct {
	Machine *machine.Machine
	Rows    []Table6Row
	// Reps is the number of repetitions the stochastic strategies were
	// averaged over (the paper uses 5).
	Reps int
}

// Table6Kernel runs the three-strategy comparison for one kernel. The
// hypervolume normalization bounds are pooled from all strategies'
// fronts so V(S) values are directly comparable, as in the paper.
// It also returns the Fig. 9 fronts (from the first repetition).
func Table6Kernel(k *kernels.Kernel, m *machine.Machine, mode Mode, reps int) (*Table6Row, *Fig9Result, error) {
	if reps <= 0 {
		reps = 5
	}
	space := tuningSpace(k, m)

	// Brute force: one deterministic run.
	bfEval, err := newEvaluator(k, m)
	if err != nil {
		return nil, nil, err
	}
	grid := bruteForceGrid(k, m, mode)
	bf, err := optimizer.BruteForceControlled(space, bfEval, grid, optimizer.Control{})
	if err != nil {
		return nil, nil, err
	}

	// RS-GDE3 and random: `reps` seeded runs each. Random gets the
	// same budget RS-GDE3 used in the corresponding repetition (the
	// paper: "random search using an equal number of evaluations as
	// our method").
	var rsFronts, rndFronts [][]pareto.Point
	var rsE, rndE []float64
	for rep := 0; rep < reps; rep++ {
		rsEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, nil, err
		}
		rs, err := search("rs-gde3", space, rsEval, optimizer.StrategyConfig{Options: optimizer.Options{Seed: int64(rep + 1)}})
		if err != nil {
			return nil, nil, err
		}
		rsFronts = append(rsFronts, rs.Front)
		rsE = append(rsE, float64(rs.Evaluations))

		rndEval, err := newEvaluator(k, m)
		if err != nil {
			return nil, nil, err
		}
		rnd, err := randomSearch(space, rndEval, rs.Evaluations, int64(100+rep))
		if err != nil {
			return nil, nil, err
		}
		rndFronts = append(rndFronts, rnd.Front)
		rndE = append(rndE, float64(rnd.Evaluations))
	}

	// Pool ideal/nadir over every front for a common normalization.
	var pool [][]float64
	pool = append(pool, frontObjectives(bf.Front)...)
	for _, f := range rsFronts {
		pool = append(pool, frontObjectives(f)...)
	}
	for _, f := range rndFronts {
		pool = append(pool, frontObjectives(f)...)
	}
	ideal, nadir, err := pareto.IdealNadir(pool)
	if err != nil {
		return nil, nil, err
	}
	for i := range ideal {
		if nadir[i] <= ideal[i] {
			nadir[i] = ideal[i] + 1e-12
		}
	}

	hvMean := func(fronts [][]pareto.Point) (float64, float64) {
		var hvs, sizes []float64
		for _, f := range fronts {
			v, err := normalizedHV(f, ideal, nadir)
			if err != nil {
				continue
			}
			hvs = append(hvs, v)
			sizes = append(sizes, float64(len(f)))
		}
		return meanOf(sizes), meanOf(hvs)
	}

	row := &Table6Row{Kernel: k.Name}
	bfHV, err := normalizedHV(bf.Front, ideal, nadir)
	if err != nil {
		return nil, nil, err
	}
	row.BruteForce = MethodMetrics{E: float64(bf.Evaluations), S: float64(len(bf.Front)), V: bfHV}
	s, v := hvMean(rndFronts)
	row.Random = MethodMetrics{E: meanOf(rndE), S: s, V: v}
	s, v = hvMean(rsFronts)
	row.RSGDE3 = MethodMetrics{E: meanOf(rsE), S: s, V: v}

	fig9 := &Fig9Result{
		Machine:    m,
		BruteForce: bf.Front,
		Random:     rndFronts[0],
		RSGDE3:     rsFronts[0],
	}
	return row, fig9, nil
}

// Table6 runs the full strategy comparison for all kernels on one
// machine.
func Table6(m *machine.Machine, mode Mode, reps int) (*Table6Result, error) {
	if reps <= 0 {
		reps = 5
	}
	res := &Table6Result{Machine: m, Reps: reps}
	for _, k := range kernels.Paper() {
		row, _, err := Table6Kernel(k, m, mode, reps)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// Render writes the table.
func (r *Table6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table VI: comparison of optimization strategies (%s, %d repetitions)\n",
		r.Machine.Name, r.Reps)
	header := []string{"Kernel",
		"BF E", "BF |S|", "BF V",
		"Rnd E", "Rnd |S|", "Rnd V",
		"RS-GDE3 E", "RS-GDE3 |S|", "RS-GDE3 V"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Kernel,
			fmt.Sprintf("%.0f", row.BruteForce.E),
			fmt.Sprintf("%.0f", row.BruteForce.S),
			fmt.Sprintf("%.2f", row.BruteForce.V),
			fmt.Sprintf("%.0f", row.Random.E),
			fmt.Sprintf("%.1f", row.Random.S),
			fmt.Sprintf("%.2f", row.Random.V),
			fmt.Sprintf("%.0f", row.RSGDE3.E),
			fmt.Sprintf("%.1f", row.RSGDE3.S),
			fmt.Sprintf("%.2f", row.RSGDE3.V),
		})
	}
	renderTable(w, header, rows)
}
