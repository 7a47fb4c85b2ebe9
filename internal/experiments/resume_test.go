package experiments

import (
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

// TestResumeComparison is the experiment-level acceptance check: every
// midpoint-interrupted search resumes to a byte-identical front with
// the exact cumulative evaluation count, and the saved-evaluation
// column is positive.
func TestResumeComparison(t *testing.T) {
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	c, err := ResumeComparison(mm, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 4 { // mm and jacobi-2d, each with rs-gde3 and nsga2
		t.Fatalf("runs = %d", len(c.Runs))
	}
	for _, run := range c.Runs {
		name := run.Kernel + "/" + run.Label
		if col(t, c, run, "Front identical") != "yes" {
			t.Fatalf("%s: resumed front not identical", name)
		}
		full, resumed := num(t, c, run, "E full"), num(t, c, run, "E resumed")
		if resumed != full {
			t.Fatalf("%s: resumed E = %v, full E = %v", name, resumed, full)
		}
		saved, fresh := num(t, c, run, "E saved"), num(t, c, run, "E new")
		if saved <= 0 || fresh <= 0 || saved+fresh != full {
			t.Fatalf("%s: E accounting wrong: full %v = new %v + saved %v?", name, full, fresh, saved)
		}
		if cut, gens := num(t, c, run, "Cut at"), num(t, c, run, "Gens"); cut != float64(int(gens)/2) {
			t.Fatalf("%s: cut at generation %v of %v", name, cut, gens)
		}
	}
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Checkpoint/resume") || !strings.Contains(out, "yes") {
		t.Fatalf("rendered table:\n%s", out)
	}
}
