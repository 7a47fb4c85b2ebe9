package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/testenv"
)

func TestExtendedComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four strategies over all kernels")
	}
	c, err := Extended(machine.Westmere(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []string{"brute-force", "random", "nsga2", "rs-gde3"}
	if len(c.Runs) != 5*len(strategies) {
		t.Fatalf("runs = %d", len(c.Runs))
	}
	for i, r := range c.Runs {
		if r.Label != strategies[i%len(strategies)] || r.Kernel != c.Runs[i-i%len(strategies)].Kernel {
			t.Fatalf("run %d is %s/%s", i, r.Kernel, r.Label)
		}
		if r.S == 0 {
			t.Errorf("%s/%s: empty front", r.Kernel, r.Label)
		}
		if r.V < 0 || r.V > 1 {
			t.Errorf("%s/%s: HV = %v", r.Kernel, r.Label, r.V)
		}
		// The brute-force front covers itself: epsilon 0, coverage 1.
		if eps, covers := num(t, c, r, "eps+"), num(t, c, r, "C(s,bf)"); r.Label == "brute-force" && (eps > 1e-9 || covers < 1) {
			t.Errorf("%s: brute-force self-indicators wrong: eps+ %v, C(s,bf) %v", r.Kernel, eps, covers)
		}
	}
	var buf bytes.Buffer
	c.Render(&buf)
	for _, want := range []string{"rs-gde3", "nsga2", "eps+", "IGD"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// validation is the one Validation run the tests below share;
// validationBytes is what it allocated.
var (
	validationBytes uint64
	validation      = sync.OnceValues(func() (*ValidationResult, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Validation()
		runtime.ReadMemStats(&after)
		validationBytes = after.TotalAlloc - before.TotalAlloc
		return res, err
	})
)

// TestValidationAllocationBudget holds one Validation to 20 MB (13 MB
// measured): each CacheModel call builds one hierarchy per machine, of
// one 8-byte word a way, and empties it between configurations. A
// hierarchy per configuration would allocate the Westmere L3's lines
// 13 times over.
func TestValidationAllocationBudget(t *testing.T) {
	if testing.Short() || testenv.Race {
		t.Skip("trace-driven simulation; the race detector's instrumentation allocates")
	}
	if _, err := validation(); err != nil {
		t.Fatal(err)
	}
	if validationBytes > 20<<20 {
		t.Errorf("Validation allocated %d bytes, budget 20 MiB", validationBytes)
	}
	t.Logf("Validation allocated %d bytes", validationBytes)
}

func TestValidationExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven simulation")
	}
	res, err := validation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 6 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	// The contrasting BLAS kernels must validate strongly at every
	// level on both machines.
	for _, rep := range res.Reports {
		if rep.Kernel == "jacobi-2d" {
			continue // intentionally flat landscape
		}
		for lvl, tau := range rep.RankAgreement {
			if tau < 0.5 {
				t.Errorf("%s/%s %s: rank agreement %.2f < 0.5", rep.Kernel, rep.Machine, lvl, tau)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Kendall tau") {
		t.Error("render broken")
	}
}

// TestValidationRankFloor holds the model to the floor EXPERIMENTS.md
// quotes (ROADMAP 6(e)): mm and dsyrk rank their tile sets' traffic as
// the cache simulator does, Kendall τ ≥ 0.90 at L1, L2 and L3 on both
// machines. mm's L1 reads 0.90 exactly, hence the tolerance.
func TestValidationRankFloor(t *testing.T) {
	if testing.Short() || testenv.Race {
		t.Skip("trace-driven simulation: 13 s plain, minutes under the race detector")
	}
	res, err := validation()
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, rep := range res.Reports {
		if rep.Kernel != "mm" && rep.Kernel != "dsyrk" {
			continue
		}
		for _, lvl := range []string{"L1", "L2", "L3"} {
			tau, ok := rep.RankAgreement[lvl]
			if !ok || tau < 0.90-1e-9 {
				t.Errorf("%s on %s, %s: Kendall tau %.4f (reported: %v), want >= 0.90", rep.Kernel, rep.Machine, lvl, tau, ok)
			}
			checked++
		}
	}
	if checked != 12 {
		t.Errorf("checked %d kernel/machine/level cells, want 2 kernels x 2 machines x 3 levels", checked)
	}
}

// TestValidationReportsPinned holds every Report of Validation — each
// configuration's simulated and modelled bytes per cache level and each
// level's rank agreement, at full precision — byte-identical to
// testdata/validation.json. -update regenerates it.
func TestValidationReportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven simulation")
	}
	res, err := validation()
	if err != nil {
		t.Fatal(err)
	}
	num := func(v float64) json.Number { return json.Number(strconv.FormatFloat(v, 'g', -1, 64)) }
	type level struct {
		SimBytes   json.Number `json:"sim_bytes"`
		ModelBytes json.Number `json:"model_bytes"`
	}
	type report struct {
		Kernel        string                 `json:"kernel"`
		Machine       string                 `json:"machine"`
		N             int64                  `json:"n"`
		Configs       [][]level              `json:"configs"`
		RankAgreement map[string]json.Number `json:"rank_agreement"`
	}
	var pins []report
	for _, rep := range res.Reports {
		r := report{Kernel: rep.Kernel, Machine: rep.Machine, N: rep.N, RankAgreement: map[string]json.Number{}}
		for _, cr := range rep.Configs {
			var levels []level
			for _, lc := range cr.Levels {
				levels = append(levels, level{num(lc.SimBytes), num(lc.ModelBytes)})
			}
			r.Configs = append(r.Configs, levels)
		}
		for name, tau := range rep.RankAgreement {
			r.RankAgreement[name] = num(tau)
		}
		pins = append(pins, r)
	}
	got, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, "testdata/validation.json", append(got, '\n'))
}
