package experiments

import (
	"strings"
	"testing"
	"time"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

func TestIslandComparisonQuick(t *testing.T) {
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	c, err := IslandComparison(mm, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) < 3 {
		t.Fatalf("expected serial + >=2 island runs, got %d", len(c.Runs))
	}
	serial := c.Runs[0]
	if w := num(t, c, serial, "W"); w != 1 {
		t.Fatalf("first run must be serial, got W=%v", w)
	}
	budget := num(t, c, serial, "W") * num(t, c, serial, "Gens")
	for _, run := range c.Runs {
		if run.E <= 0 || run.S <= 0 {
			t.Fatalf("run %q did no work: %+v", run.Label, run)
		}
		if run.V < 0 || run.V > 1 {
			t.Fatalf("run %q hypervolume %g outside [0,1]", run.Label, run.V)
		}
		if got := num(t, c, run, "W") * num(t, c, run, "Gens"); got != budget {
			t.Fatalf("run %q generation budget %v != serial budget %v", run.Label, got, budget)
		}
		if wall, err := time.ParseDuration(col(t, c, run, "Wall clock")); err != nil || wall <= 0 {
			t.Fatalf("run %q has no wall-clock time: %v %v", run.Label, wall, err)
		}
	}

	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Island-model comparison", "serial", "islands W=4", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering lacks %q:\n%s", want, out)
		}
	}
}
