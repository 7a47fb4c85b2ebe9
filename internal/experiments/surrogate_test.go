package experiments

import (
	"bytes"
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

// TestSurrogateComparison checks the experiment's structural
// properties in quick mode: the four runs come out in order, the
// screened runs spend no more real evaluations than their equal-budget
// baselines' totals, every run produces a front, and the baselines
// always reach their own final hypervolume (their attainment is
// self-referential and exact).
func TestSurrogateComparison(t *testing.T) {
	k, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := SurrogateComparison(k, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	wantFlags := []struct{ surrogate, warm bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	}
	for i, want := range wantFlags {
		run := res.Runs[i]
		if run.Surrogate != want.surrogate || run.Warm != want.warm {
			t.Fatalf("run %d = %+v, want surrogate=%v warm=%v", i, run, want.surrogate, want.warm)
		}
		if run.Evaluations == 0 || run.FrontSize == 0 || run.HV <= 0 {
			t.Fatalf("run %d degenerate: %+v", i, run)
		}
	}
	// The screen stretches the same budget over more generations; the
	// budget stop is a generation barrier, so a screened run may
	// overshoot its baseline's total by at most one admitted batch.
	for i := range []int{1, 3} {
		surr, base := res.Runs[2*i+1], res.Runs[2*i]
		if surr.Evaluations > base.Evaluations+base.Evaluations/2 {
			t.Fatalf("%s spent %d evaluations against a budget of %d",
				surr.Label, surr.Evaluations, base.Evaluations)
		}
	}
	if res.Runs[0].EvalsToTarget == 0 || res.Runs[2].EvalsToTarget == 0 {
		t.Fatalf("a baseline never reached its own final hypervolume: %+v", res.Runs)
	}

	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{
		"Surrogate pre-screening", "baseline cold", "surrogate cold",
		"baseline warm", "surrogate warm", "speedup",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}
