package autotune

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"autotune/internal/export"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_fronts.json from the current code")

const goldenFrontsPath = "testdata/golden_fronts.json"

// goldenFront pins one fixed-seed search: the SHA-256 of its
// export.FrontJSON bytes and its evaluation count E.
type goldenFront struct {
	SHA256 string `json:"sha256"`
	E      int    `json:"e"`
}

// goldenVariants are the search shapes the golden file covers; each
// runs on the paper's 5 kernels × 2 machines × seeds {1,2} with the 1%
// simulator noise cmd/autotune and the benchmark use.
var goldenVariants = []struct {
	name string
	opts []Option
}{
	{"rs-gde3", nil},
	{"gde3", []Option{WithMethod(GDE3)}},
	{"nsga2", []Option{WithMethod(NSGA2)}},
	{"random", []Option{WithMethod(RandomSearch)}},
	{"grid", []Option{WithMethod(GridSearch)}},
	{"race", []Option{WithRace(RaceOptions{})}},
	{"rs-gde3+surrogate", []Option{WithSurrogate(0)}},
	{"rs-gde3+islands(4,5)", []Option{WithIslands(4, 5)}},
	{"rs-gde3+energy", []Option{WithEnergyObjective()}},
}

// computeGoldenFronts runs every golden cell on the current code.
func computeGoldenFronts(t *testing.T) map[string]goldenFront {
	t.Helper()
	out := map[string]goldenFront{}
	for _, v := range goldenVariants {
		for _, k := range []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"} {
			for _, m := range []string{"Westmere", "Barcelona"} {
				for seed := int64(1); seed <= 2; seed++ {
					id := fmt.Sprintf("%s/%s/%s/seed%d", v.name, k, m, seed)
					opts := append([]Option{WithMachine(m), WithSeed(seed), WithNoise(0.01)}, v.opts...)
					res, err := Tune(k, opts...)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					var buf bytes.Buffer
					if err := export.FrontJSON(&buf, res.Front, res.Unit.ObjectiveNames); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					out[id] = goldenFront{SHA256: fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), E: res.Evaluations}
				}
			}
		}
	}
	return out
}

// TestGoldenFronts holds every fixed-seed front and its E byte-identical
// to testdata/golden_fronts.json, at GOMAXPROCS 1 and 4. The file was
// generated on the commit *before* the evaluation hot path was rebuilt,
// so it is a statement against that code rather than self-consistency;
// regenerate it (go test -run TestGoldenFronts -update .) only for a
// change that is meant to move fronts.
func TestGoldenFronts(t *testing.T) {
	if *updateGolden {
		data, err := json.MarshalIndent(computeGoldenFronts(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFrontsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFrontsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenFront
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := computeGoldenFronts(t)
			if len(got) != len(want) {
				t.Errorf("%d golden cells computed, %d in %s", len(got), len(want), goldenFrontsPath)
			}
			for id, g := range got {
				if w, ok := want[id]; !ok {
					t.Errorf("%s: not in %s", id, goldenFrontsPath)
				} else if g != w {
					t.Errorf("%s: front %s E=%d, golden %s E=%d", id, g.SHA256[:12], g.E, w.SHA256[:12], w.E)
				}
			}
		})
	}
}
