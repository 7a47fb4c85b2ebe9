package experiments

import (
	"fmt"
	"io"
	"os"

	"autotune/internal/driver"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/tunedb"
)

// WarmStartRun is one row of the warm-start comparison: a search with
// its new-evaluation count (the E metric — cached results are free),
// front size and normalized hypervolume.
type WarmStartRun struct {
	Label       string
	Machine     string
	WarmStart   bool
	Evaluations int
	FrontSize   int
	HV          float64
}

// WarmStartResult compares cold searches against warm-started reruns
// backed by the persistent tuning database, on the tuned machine and
// across machines (nearest-signature transfer).
type WarmStartResult struct {
	Kernel *kernels.Kernel
	// Machine is the primary tuning target; Variant is the
	// transfer target — same core geometry (so the search space and
	// key match) but different clock and memory bandwidth.
	Machine *machine.Machine
	Variant *machine.Machine
	// StoredEvals is the journal's evaluation count after the cold
	// run, i.e. what the warm rerun can reuse.
	StoredEvals int
	// Runs: cold and warm on Machine, then cold and transfer-seeded
	// warm on Variant.
	Runs []WarmStartRun
}

// WarmStartComparison runs the persistent-database experiment for one
// kernel: a cold search populates a fresh database, an identical warm
// rerun reuses it (cache priming plus Pareto-front population seeding),
// and a clock/bandwidth variant of the machine measures the
// cross-machine transfer path, where only seeds — never objective
// values — carry over. Hypervolumes are normalized per machine against
// the pooled ideal/nadir of that machine's two fronts.
func WarmStartComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*WarmStartResult, error) {
	pop, gens := 24, 12
	if mode == Quick {
		pop, gens = 12, 6
	}

	dir, err := os.MkdirTemp("", "tunedb-warmstart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := tunedb.Open(dir)
	if err != nil {
		return nil, err
	}
	defer db.Close()

	variant := *m
	variant.Name = m.Name + "-variant"
	variant.ClockGHz *= 1.25
	variant.MemBandwidthGBs *= 0.8

	type spec struct {
		label string
		mach  *machine.Machine
		db    *tunedb.DB
		warm  bool
	}
	specs := []spec{
		{"cold", m, db, false},
		{"warm rerun", m, db, true},
		{"cold", &variant, nil, false},
		{"transfer warm", &variant, db, true},
	}

	res := &WarmStartResult{Kernel: k, Machine: m, Variant: &variant}
	var fronts [][]pareto.Point
	for i, s := range specs {
		out, err := driver.TuneKernel(k.Name, driver.Options{
			Machine:   s.mach,
			NoiseAmp:  NoiseAmp,
			Optimizer: optimizer.Options{PopSize: pop, MaxIterations: gens, Seed: 1},
			DB:        s.db,
			WarmStart: s.warm,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s run: %w", s.label, err)
		}
		if i == 0 {
			keys := db.Keys()
			if len(keys) == 1 {
				if res.StoredEvals, err = db.EvalCount(keys[0]); err != nil {
					return nil, fmt.Errorf("experiments: %s run: %w", s.label, err)
				}
			}
		}
		res.Runs = append(res.Runs, WarmStartRun{
			Label:       s.label,
			Machine:     s.mach.Name,
			WarmStart:   s.warm,
			Evaluations: out.Result.Evaluations,
			FrontSize:   len(out.Result.Front),
		})
		fronts = append(fronts, out.Result.Front)
	}

	// Normalize hypervolume per machine: objective scales differ
	// between the primary machine and its variant.
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		pool := append(frontObjectives(fronts[pair[0]]), frontObjectives(fronts[pair[1]])...)
		ideal, nadir, err := pareto.IdealNadir(pool)
		if err != nil {
			return nil, err
		}
		for i := range ideal {
			if nadir[i] <= ideal[i] {
				nadir[i] = ideal[i] + 1e-12
			}
		}
		for _, idx := range pair {
			hv, err := normalizedHV(fronts[idx], ideal, nadir)
			if err != nil {
				return nil, err
			}
			res.Runs[idx].HV = hv
		}
	}
	return res, nil
}

// Render writes the comparison table.
func (r *WarmStartResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Warm-start comparison: %s, %d stored evaluations after the cold run (V(S) normalized per machine)\n",
		r.Kernel.Name, r.StoredEvals)
	header := []string{"Run", "Machine", "Warm", "E (new)", "|S|", "V(S)"}
	var rows [][]string
	for _, run := range r.Runs {
		warm := "no"
		if run.WarmStart {
			warm = "yes"
		}
		rows = append(rows, []string{
			run.Label,
			run.Machine,
			warm,
			fmt.Sprint(run.Evaluations),
			fmt.Sprint(run.FrontSize),
			fmt.Sprintf("%.2f", run.HV),
		})
	}
	renderTable(w, header, rows)
}
