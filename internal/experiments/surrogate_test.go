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
	c, err := SurrogateComparison(k, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"baseline cold", "surrogate cold", "baseline warm", "surrogate warm"}
	if len(c.Runs) != len(want) {
		t.Fatalf("runs = %d", len(c.Runs))
	}
	for i, run := range c.Runs {
		if run.Label != want[i] {
			t.Fatalf("run %d = %s, want %s", i, run.Label, want[i])
		}
		if run.E == 0 || run.S == 0 || run.V <= 0 {
			t.Fatalf("run %d degenerate: %+v", i, run)
		}
	}
	// The screen stretches the same budget over more generations; the
	// budget stop is a generation barrier, so a screened run may
	// overshoot its baseline's total by at most one admitted batch.
	for _, i := range []int{0, 2} {
		base, surr := c.Runs[i], c.Runs[i+1]
		if surr.E > base.E+base.E/2 {
			t.Fatalf("%s spent %v evaluations against a budget of %v", surr.Label, surr.E, base.E)
		}
		if col(t, c, base, "E to target") == "never" {
			t.Fatalf("%s never reached its own final hypervolume", base.Label)
		}
	}

	var buf bytes.Buffer
	c.Render(&buf)
	for _, want := range append(want, "Surrogate pre-screening", "speedup") {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}
