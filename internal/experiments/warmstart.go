package experiments

import (
	"fmt"
	"os"

	"autotune/internal/driver"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/tunedb"
)

// WarmStartComparison runs the persistent-database experiment for one
// kernel: a cold search populates a fresh database, an identical warm
// rerun reuses it (cache priming plus Pareto-front population seeding),
// and a clock/bandwidth variant of the machine — same core geometry, so
// the search space and key match — measures the cross-machine transfer
// path, where only seeds, never objective values, carry over. E counts
// new evaluations only (cached results are free); V(S) is normalised
// per machine, since objective scales differ between the two.
func WarmStartComparison(k *kernels.Kernel, m *machine.Machine, mode Mode) (*Comparison, error) {
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

	stored := 0 // the database's evaluations after the cold run: what the warm rerun can reuse
	tune := func(mach *machine.Machine, db *tunedb.DB, warm bool) func(c *cell) (*Run, error) {
		return func(c *cell) (*Run, error) {
			out, err := driver.TuneKernel(c.k.Name, driver.Options{
				Machine:   mach,
				NoiseAmp:  noiseAmp,
				Optimizer: optimizer.Options{PopSize: pop, MaxIterations: gens, Seed: 1},
				DB:        db,
				WarmStart: warm,
			})
			if err != nil {
				return nil, err
			}
			yes := "no"
			if warm {
				yes = "yes"
			}
			return &Run{Results: []*optimizer.Result{out.Result}, Cols: []string{mach.Name, yes}}, nil
		}
	}
	cold := tune(m, db, false)
	runs, err := compare([]*kernels.Kernel{k}, []arm{
		{label: "cold", pool: 0, run: func(c *cell) (*Run, error) {
			r, err := cold(c)
			if err != nil {
				return r, err
			}
			keys, err := db.ScanKeys("")
			if err == nil && len(keys) == 1 {
				stored, err = db.EvalCount(keys[0])
			}
			return r, err
		}},
		{label: "warm rerun", pool: 0, run: tune(m, db, true)},
		{label: "cold", pool: 1, run: tune(&variant, nil, false)},
		{label: "transfer warm", pool: 1, run: tune(&variant, db, true)},
	})
	if err != nil {
		return nil, err
	}
	return table(fmt.Sprintf("Warm-start comparison: %s, %d stored evaluations after the cold run (V(S) normalized per machine)", k.Name, stored),
		[]string{"Run", "Machine", "Warm", "E (new)", "|S|", "V(S)"}, runs,
		func(r *Run) []string { return append(append([]string{r.Label}, r.Cols...), r.esv("%.2f")...) }), nil
}
