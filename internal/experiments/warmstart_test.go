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
	res, err := WarmStartComparison(k, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	cold, warm := res.Runs[0], res.Runs[1]
	if cold.WarmStart || !warm.WarmStart {
		t.Fatalf("run order wrong: %+v", res.Runs)
	}
	if warm.Evaluations >= cold.Evaluations {
		t.Fatalf("warm E = %d not below cold E = %d", warm.Evaluations, cold.Evaluations)
	}
	if warm.HV < cold.HV {
		t.Fatalf("warm V(S) = %.4f below cold V(S) = %.4f", warm.HV, cold.HV)
	}
	if res.StoredEvals == 0 {
		t.Fatal("cold run journaled nothing")
	}
	vCold, vWarm := res.Runs[2], res.Runs[3]
	if vCold.Machine != res.Variant.Name || vWarm.Machine != res.Variant.Name {
		t.Fatalf("variant rows carry machines %q/%q", vCold.Machine, vWarm.Machine)
	}
	if vWarm.FrontSize == 0 || vCold.FrontSize == 0 {
		t.Fatal("variant runs produced empty fronts")
	}

	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"Warm-start comparison", "cold", "warm rerun", "transfer warm", res.Variant.Name} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("rendering missing %q:\n%s", want, buf.String())
		}
	}
}
