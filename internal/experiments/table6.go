package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
)

// Table6 compares the paper's three strategies (Table VI) on the given
// kernels of one machine: brute force once, RS-GDE3 in reps seeded
// runs, and as many runs of random search, each at the budget its
// RS-GDE3 run used (the paper: "random search using an equal number of
// evaluations as our method"). The three share one pool, so their V(S)
// values are directly comparable, as in the paper. Fig. 9 reads the
// fronts of the first repetition.
func Table6(ks []*kernels.Kernel, m *machine.Machine, mode Mode, reps int) (*Comparison, error) {
	if reps < 1 {
		return nil, fmt.Errorf("experiments: Table VI needs at least one repetition, got %d", reps)
	}
	repeat := func(search func(rep int) (*optimizer.Result, error)) (*Run, error) {
		r := &Run{}
		for rep := 0; rep < reps; rep++ {
			res, err := search(rep)
			if err != nil {
				return nil, err
			}
			r.Results = append(r.Results, res)
		}
		return r, nil
	}
	arms := []arm{
		{label: "brute force", run: func(c *cell) (*Run, error) { return single(bruteForce(c.k, m, mode)) }},
		{label: "random", run: func(c *cell) (*Run, error) {
			rs, err := c.get("RS-GDE3")
			if err != nil {
				return nil, err
			}
			return repeat(func(rep int) (*optimizer.Result, error) {
				return searchFresh(c.k, m, "random", optimizer.StrategyConfig{
					Options: optimizer.Options{Seed: int64(100 + rep)}, RandomBudget: rs.Results[rep].Evaluations,
				})
			})
		}},
		{label: "RS-GDE3", run: func(c *cell) (*Run, error) {
			return repeat(func(rep int) (*optimizer.Result, error) {
				return searchFresh(c.k, m, "rs-gde3", optimizer.StrategyConfig{Options: optimizer.Options{Seed: int64(rep + 1)}})
			})
		}},
	}
	runs, err := compare(ks, arms)
	if err != nil {
		return nil, err
	}
	c := &Comparison{
		Title:  fmt.Sprintf("Table VI: comparison of optimization strategies (%s, %d repetitions)", m.Name, reps),
		Header: []string{"Kernel"},
		Runs:   runs,
	}
	for _, short := range []string{"BF", "Rnd", "RS-GDE3"} {
		c.Header = append(c.Header, short+" E", short+" |S|", short+" V")
	}
	// One row per kernel, its arms side by side.
	for i, r := range runs {
		if i%len(arms) == 0 {
			c.Rows = append(c.Rows, []string{r.Kernel})
		}
		sFormat := "%.1f" // a mean over the repetitions
		if r.Label == "brute force" {
			sFormat = "%.0f"
		}
		row := &c.Rows[len(c.Rows)-1]
		*row = append(*row, fmt.Sprintf("%.0f", r.E), fmt.Sprintf(sFormat, r.S), fmt.Sprintf("%.2f", r.V))
	}
	return c, nil
}

// Fig9 renders Fig. 9 for one kernel of a Table VI comparison on m: the
// front of each strategy's first repetition, as (time, resources)
// pairs in time order.
func Fig9(w io.Writer, m *machine.Machine, table6 *Comparison, kernel string) {
	fmt.Fprintf(w, "Fig. 9: Pareto fronts by optimization strategy (%s)\n", m.Name)
	for _, r := range kernelRuns(table6, kernel) {
		objs := frontObjectives(r.Results[0].Front)
		fmt.Fprintf(w, "  %-12s (%2d points):", r.Label, len(objs))
		for i := 0; i < len(objs); i++ {
			for j := i + 1; j < len(objs); j++ {
				if objs[j][0] < objs[i][0] {
					objs[i], objs[j] = objs[j], objs[i]
				}
			}
		}
		for _, o := range objs {
			fmt.Fprintf(w, " (%.3f,%.2f)", o[0], o[1])
		}
		fmt.Fprintln(w)
	}
}

// ExportFig9 writes the fronts of Fig9 into dir, each as CSV, plus one
// gnuplot script plotting them; an empty dir writes nothing.
func ExportFig9(dir string, m *machine.Machine, table6 *Comparison, kernel string) error {
	files := map[string]func(io.Writer) error{}
	csvs := map[string]string{}
	for _, r := range kernelRuns(table6, kernel) {
		name := strings.ToLower(strings.NewReplacer(" ", "", "-", "").Replace(r.Label))
		csv := fmt.Sprintf("fig9_%s_%s.csv", m.Name, name)
		csvs[name] = filepath.Join(dir, csv)
		files[csv] = func(w io.Writer) error {
			return export.FrontCSV(w, r.Results[0].Front, nil, []string{"time", "resources"})
		}
	}
	files["fig9_"+m.Name+".gp"] = func(w io.Writer) error {
		return export.GnuplotFronts(w, "Pareto fronts ("+m.Name+")", csvs)
	}
	return writeFiles(dir, files)
}

// kernelRuns returns the runs of a comparison on one kernel.
func kernelRuns(c *Comparison, kernel string) []*Run {
	var out []*Run
	for _, r := range c.Runs {
		if r.Kernel == kernel {
			out = append(out, r)
		}
	}
	return out
}
