package experiments

import (
	"fmt"
	"io"
	"slices"

	"autotune/internal/kernels"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
)

// Comparison is the outcome of one comparison experiment — Table VI,
// Extended, islands, racing, warm start, surrogate screening or
// checkpoint/resume: labelled arms run on fresh evaluators per kernel,
// scored against the pooled bounds of their fronts, laid out as one
// table.
type Comparison struct {
	Title  string
	Header []string
	// Runs holds one run per kernel and arm, kernel by kernel in arm
	// order. Rows[i] renders Runs[i], except in Table VI, whose row
	// holds a kernel's every arm.
	Runs  []*Run
	Rows  [][]string
	Notes []string // printed under the table
}

// Render writes the title, the table and the notes.
func (c *Comparison) Render(w io.Writer) {
	fmt.Fprintln(w, c.Title)
	renderTable(w, c.Header, c.Rows)
	for _, n := range c.Notes {
		fmt.Fprintln(w, n)
	}
}

// A Run is one arm of a comparison on one kernel.
type Run struct {
	Kernel string
	Label  string
	// Results holds the searches the arm ran, one per repetition
	// (resume: the full search, then the resumed one). E and S are the
	// means of their evaluation counts and front sizes; V is the mean
	// of their hypervolumes in the arm's pool, or what an unpooled
	// experiment sets (the surrogate's absolute hypervolume).
	Results []*optimizer.Result
	E, S, V float64
	// Cols are the columns only this experiment's arms have, rendered.
	Cols []string
	pool int
}

// arm is one labelled search of a comparison, run on each kernel.
type arm struct {
	label string
	// pool groups the arms normalised against one [ideal, nadir] box
	// on a kernel; an arm in pool -1 is not scored.
	pool int
	// run runs the arm on fresh evaluators and returns its Results and
	// Cols; it reaches the other arms of the kernel through c.
	run func(c *cell) (*Run, error)
}

// single is the run of an arm that made one search.
func single(res *optimizer.Result, err error) (*Run, error) {
	if err != nil {
		return nil, err
	}
	return &Run{Results: []*optimizer.Result{res}}, nil
}

// cell is one kernel of a comparison and the runs made on it so far,
// by arm.
type cell struct {
	k    *kernels.Kernel
	arms []arm
	runs []*Run
}

// get returns the run of the first arm so labelled, running the arm
// first if it has not run: an arm may read one declared after it.
func (c *cell) get(label string) (*Run, error) {
	return c.run(slices.IndexFunc(c.arms, func(a arm) bool { return a.label == label }))
}

func (c *cell) run(i int) (*Run, error) {
	if c.runs[i] != nil {
		return c.runs[i], nil
	}
	a := c.arms[i]
	r, err := a.run(c)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", a.label, c.k.Name, err)
	}
	r.Kernel, r.Label, r.pool = c.k.Name, a.label, a.pool
	var evals, sizes []float64
	for _, res := range r.Results {
		evals = append(evals, float64(res.Evaluations))
		sizes = append(sizes, float64(len(res.Front)))
	}
	r.E, r.S = meanOf(evals), meanOf(sizes)
	c.runs[i] = r
	return r, nil
}

// compare runs every arm on every kernel and scores each kernel's runs.
func compare(ks []*kernels.Kernel, arms []arm) ([]*Run, error) {
	var out []*Run
	for _, k := range ks {
		c := &cell{k: k, arms: arms, runs: make([]*Run, len(arms))}
		for i := range arms {
			if _, err := c.run(i); err != nil {
				return nil, err
			}
		}
		if err := score(c.runs); err != nil {
			return nil, err
		}
		out = append(out, c.runs...)
	}
	return out, nil
}

// table lays runs out one row each under a title and a header.
func table(title string, header []string, runs []*Run, row func(r *Run) []string) *Comparison {
	c := &Comparison{Title: title, Header: header, Runs: runs}
	for _, r := range runs {
		c.Rows = append(c.Rows, row(r))
	}
	return c
}

// score sets V of every pooled run of one kernel: the mean, over the
// run's fronts, of the normalised hypervolume in the [ideal, nadir] box
// of every front in its pool. A front that cannot be scored is an
// error, never a mean over the fronts that could.
func score(runs []*Run) error {
	pools := map[int][][]float64{}
	for _, r := range runs {
		for _, res := range r.Results {
			pools[r.pool] = append(pools[r.pool], frontObjectives(res.Front)...)
		}
	}
	for _, r := range runs {
		if r.pool < 0 {
			continue
		}
		ideal, nadir, err := pareto.IdealNadir(pools[r.pool])
		if err != nil {
			return fmt.Errorf("experiments: scoring %s on %s: %w", r.Label, r.Kernel, err)
		}
		for i := range ideal {
			if nadir[i] <= ideal[i] {
				nadir[i] = ideal[i] + 1e-12
			}
		}
		var hvs []float64
		for _, res := range r.Results {
			v, err := pareto.NormalizedHypervolume(frontObjectives(res.Front), ideal, nadir)
			if err != nil {
				return fmt.Errorf("experiments: scoring %s on %s: %w", r.Label, r.Kernel, err)
			}
			hvs = append(hvs, v)
		}
		r.V = meanOf(hvs)
	}
	return nil
}

// esv renders a run's E, |S| and V, V in the given format.
func (r *Run) esv(vFormat string) []string {
	return []string{fmt.Sprintf("%.0f", r.E), fmt.Sprintf("%.0f", r.S), fmt.Sprintf(vFormat, r.V)}
}
