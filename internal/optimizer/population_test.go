package optimizer

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestSnapshotRestoreRoundTrip: for every strategy with a Restore hook,
// an instance restored from a snapshot snapshots as that snapshot and
// steps on exactly as the original does — the two snapshot
// byte-identically one generation later. The
// snapshot is taken after the first generation that leaves the
// stagnation counter nonzero, so the restore has one to carry.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	var resumable []string
	for _, name := range StrategyNames() {
		if s, _ := StrategyByName(name); s.Restore != nil {
			resumable = append(resumable, name)
		}
	}
	if want := []string{"gde3", "motpe", "nsga2", "rs-gde3"}; !slices.Equal(resumable, want) {
		t.Fatalf("strategies with a Restore hook: %v, want %v", resumable, want)
	}
	space := schafferSpace()
	for _, name := range resumable {
		t.Run(name, func(t *testing.T) {
			strat, _ := StrategyByName(name)
			cfg := strat.Normalize(space, StrategyConfig{Options: Options{PopSize: 12, Stagnation: 1 << 30, Seed: 1}})
			seed := cfg.Options.Seed
			orig := strat.New(space, newFuncEvaluator(schaffer), cfg, seed)
			st := orig.snapshot()
			for k := 0; st.Stagnant == 0; k++ {
				if k == 50 {
					t.Fatal("50 generations left the stagnation counter at 0")
				}
				orig.step()
				st = orig.snapshot()
			}
			restored := strat.Restore(space, newFuncEvaluator(schaffer), cfg, seed, st)
			same := func(when string) {
				t.Helper()
				oj, err := json.Marshal(orig.snapshot())
				if err != nil {
					t.Fatal(err)
				}
				rj, _ := json.Marshal(restored.snapshot())
				if string(oj) != string(rj) {
					t.Fatalf("restored instance differs %s:\n%s\nvs\n%s", when, rj, oj)
				}
			}
			same("from the snapshot it was restored from")
			orig.step()
			restored.step()
			same("after one step")
		})
	}
}
