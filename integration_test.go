// Integration tests: cross-package, full-budget checks of the paper's
// headline claims. Quick unit-level variants live in the individual
// packages; these tests run the paper-scale experiment budgets.
package autotune_test

import (
	"testing"

	"autotune"
	"autotune/internal/experiments"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/rts"
)

// The abstract's claim: "Our static optimizer finds solutions matching
// or surpassing those determined by exhaustively sampling the search
// space on a regular grid, while using less than 4% of the
// computational effort on average."
func TestClaimEvaluationReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget experiment")
	}
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		c, err := experiments.Table6([]*kernels.Kernel{mm}, m, experiments.Full, 3)
		if err != nil {
			t.Fatal(err)
		}
		bf, rnd, rs := c.Runs[0], c.Runs[1], c.Runs[2]
		ratio := rs.E / bf.E
		// §V-C: "between 99% and 90% lower than the evaluations
		// required by brute force".
		if ratio > 0.10 {
			t.Errorf("%s: RS-GDE3 used %.1f%% of brute-force evaluations, want <= 10%%",
				m.Name, 100*ratio)
		}
		// Hypervolume comparable to brute force...
		if rs.V < 0.85*bf.V {
			t.Errorf("%s: RS-GDE3 V=%.3f well below brute force V=%.3f", m.Name, rs.V, bf.V)
		}
		// ...and clearly above random search at equal budget.
		if rs.V <= rnd.V {
			t.Errorf("%s: RS-GDE3 V=%.3f not above random V=%.3f", m.Name, rs.V, rnd.V)
		}
		// More solutions than brute force (§V-C conclusion 1).
		if rs.S < bf.S {
			t.Errorf("%s: RS-GDE3 |S|=%.1f below brute force |S|=%.0f", m.Name, rs.S, bf.S)
		}
	}
}

// The abstract's claim: "parallelism-aware multi-versioning approaches
// like our own gain a performance improvement of up to 70% over
// solutions tuned for only one specific number of threads" and the
// conclusion's "failing to do so can decrease performance by up to a
// factor of 4".
func TestClaimThreadSpecificTuningMatters(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget experiment")
	}
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	worstLoss := 0.0
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		s, err := experiments.NewSweep(mm, m, experiments.Full)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := s.Loss()
		for i := range loss {
			for j := range loss[i] {
				worstLoss = max(worstLoss, loss[i][j])
			}
		}
	}
	// "up to 70%" — our model should show at least a 30% worst case
	// for mm across both machines (the factor-4 cases come from
	// n-body, checked below).
	if worstLoss < 0.3 {
		t.Errorf("worst mm cross-thread loss = %.1f%%, want substantial (>= 30%%)", 100*worstLoss)
	}
}

// Table V's asymmetry at full budget: n-body flat on Westmere (fits
// the 30 MB L3), catastrophic on Barcelona (2 MB L3), with a 1tmax
// loss in the "factor of 4" territory.
func TestClaimNBodyCacheAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget experiment")
	}
	nb, err := kernels.ByName("n-body")
	if err != nil {
		t.Fatal(err)
	}
	// Max and mean of the off-diagonal losses of the machine's Table II.
	lossOf := func(m *machine.Machine) (maxLoss, avg float64) {
		s, err := experiments.NewSweep(nb, m, experiments.Full)
		if err != nil {
			t.Fatal(err)
		}
		loss, _ := s.Loss()
		sum, n := 0.0, 0
		for i := range loss {
			for j := range loss[i] {
				maxLoss = max(maxLoss, loss[i][j])
				if i != j {
					sum += loss[i][j]
					n++
				}
			}
		}
		return maxLoss, sum / float64(n)
	}
	wMax, wAvg := lossOf(machine.Westmere())
	bMax, bAvg := lossOf(machine.Barcelona())
	// Westmere: near-flat landscape — residual losses come only from
	// tie-breaking on the load-balance granularity (see
	// EXPERIMENTS.md); Barcelona: the 2 MB L3 forces large i-tiles at
	// low thread counts that collapse under load imbalance and cache
	// crowding at 32 threads.
	if wMax > 0.6 {
		t.Errorf("Westmere n-body max cross loss = %.1f%%, want mild (< 60%%)", 100*wMax)
	}
	if bMax < 1.0 {
		t.Errorf("Barcelona n-body max cross loss = %.1f%%, want the factor-of-4 class (> 100%%)", 100*bMax)
	}
	if bMax < 3*wMax {
		t.Errorf("max-loss asymmetry too weak: Barcelona %.2f vs Westmere %.2f", bMax, wMax)
	}
	if bAvg < 2.5*wAvg {
		t.Errorf("avg-loss asymmetry too weak: Barcelona %.3f vs Westmere %.3f", bAvg, wAvg)
	}
}

// End-to-end pipeline: tune, serialize, reload, bind real kernel
// entries, execute under the runtime with changing policies.
func TestEndToEndPipelineWithRealExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("executes real kernels")
	}
	res, err := autotune.Tune("mm",
		autotune.WithProblemSize(128),
		autotune.WithSeed(3),
		autotune.WithOptimizerOptions(autotune.OptimizerOptions{PopSize: 12, Seed: 3, MaxIterations: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.Unit.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unit, err := autotune.DecodeUnit(blob)
	if err != nil {
		t.Fatal(err)
	}
	mm, _ := kernels.ByName("mm")
	err = unit.Bind(func(m autotune.Meta) (autotune.Entry, error) {
		tiles := append([]int64(nil), m.Tiles...)
		threads := m.Threads
		return func() error {
			_, err := mm.Run(128, tiles, threads)
			return err
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := autotune.NewRuntime(unit, autotune.WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetPolicy(rts.WeightedSum{Weights: []float64{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Invoke(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Invocations != 2 {
		t.Fatalf("stats = %+v", rt.Stats())
	}
}

// The Fig. 2 observation at full grid density: the optimal (t1, t2)
// combination depends on the thread count.
func TestClaimTileOptimaShiftAcrossThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget experiment")
	}
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	s, err := experiments.NewSweep(mm, machine.Westmere(), experiments.Full)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, b := range s.Best {
		key := ""
		for _, t := range s.Tiles[b] {
			key += "/" + string(rune(t))
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("optimal tiles identical across all thread counts; Fig. 2's premise absent")
	}
}
