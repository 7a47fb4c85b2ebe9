package experiments

import (
	"bytes"
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
)

// TestWarmStartComparison checks the experiment's acceptance
// properties: the warm rerun reaches at least the cold run's
// hypervolume with strictly fewer new evaluations, and the
// cross-machine rows are present for the variant target.
func TestWarmStartComparison(t *testing.T) {
	k, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	c, err := WarmStartComparison(k, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 4 {
		t.Fatalf("runs = %d", len(c.Runs))
	}
	cold, warm := c.Runs[0], c.Runs[1]
	if col(t, c, cold, "Warm") != "no" || col(t, c, warm, "Warm") != "yes" {
		t.Fatalf("run order wrong: %v", c.Rows)
	}
	if warm.E >= cold.E {
		t.Fatalf("warm E = %v not below cold E = %v", warm.E, cold.E)
	}
	if warm.V < cold.V {
		t.Fatalf("warm V(S) = %.4f below cold V(S) = %.4f", warm.V, cold.V)
	}
	if strings.Contains(c.Title, " 0 stored evaluations") {
		t.Fatalf("cold run journaled nothing: %s", c.Title)
	}
	variant := "Westmere-variant"
	vCold, vWarm := c.Runs[2], c.Runs[3]
	if col(t, c, vCold, "Machine") != variant || col(t, c, vWarm, "Machine") != variant {
		t.Fatalf("variant rows carry machines %q/%q", col(t, c, vCold, "Machine"), col(t, c, vWarm, "Machine"))
	}
	if vWarm.S == 0 || vCold.S == 0 {
		t.Fatal("variant runs produced empty fronts")
	}

	var buf bytes.Buffer
	c.Render(&buf)
	for _, want := range []string{"Warm-start comparison", "cold", "warm rerun", "transfer warm", variant} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}
