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

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden_fronts.json and testdata/golden_units.json from the current code")

const (
	goldenFrontsPath = "testdata/golden_fronts.json"
	goldenUnitsPath  = "testdata/golden_units.json"
)

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
	{"motpe", []Option{WithMethod(MOTPE)}},
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

// checkGolden holds compute's cells byte-identical to the JSON map at
// path, at GOMAXPROCS 1 and 4; with -update it rewrites the file from
// the current code instead.
func checkGolden[T comparable](t *testing.T, path string, compute func(*testing.T) map[string]T) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(compute(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := compute(t)
			if len(got) != len(want) {
				t.Errorf("%d golden cells computed, %d in %s", len(got), len(want), path)
			}
			for id, g := range got {
				if w, ok := want[id]; !ok {
					t.Errorf("%s: not in %s", id, path)
				} else if g != w {
					t.Errorf("%s: got %v, golden %v", id, g, w)
				}
			}
		})
	}
}

// TestGoldenFronts holds every fixed-seed front and its E byte-identical
// to testdata/golden_fronts.json, at GOMAXPROCS 1 and 4. The file is
// always generated on the commit *before* the change it guards (the
// evaluation hot path, then selection and ranking), so it is a
// statement against that code rather than self-consistency; regenerate
// it (go test -run Golden -update .) only for a change that is meant to
// move fronts.
func TestGoldenFronts(t *testing.T) {
	checkGolden(t, goldenFrontsPath, computeGoldenFronts)
}

// computeGoldenUnits hashes the emitted unit — every version's Meta and
// code listing, which FrontJSON does not cover — of the default search
// and of the unroll-dimension search (the only skeleton with a third
// transformation step) on the paper's kernels and machines.
func computeGoldenUnits(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, v := range []struct {
		name string
		opts []Option
	}{
		{"rs-gde3", nil},
		{"rs-gde3+unroll", []Option{WithUnrollDimension()}},
	} {
		for _, k := range []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"} {
			for _, m := range []string{"Westmere", "Barcelona"} {
				id := fmt.Sprintf("%s/%s/%s/seed1", v.name, k, m)
				opts := append([]Option{WithMachine(m), WithSeed(1), WithNoise(0.01)}, v.opts...)
				res, err := Tune(k, opts...)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				h := sha256.New()
				for _, ver := range res.Unit.Versions {
					meta, err := json.Marshal(ver.Meta)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					h.Write(meta)
					h.Write([]byte{0})
					h.Write([]byte(ver.Code))
					h.Write([]byte{0})
				}
				out[id] = fmt.Sprintf("%x", h.Sum(nil))
			}
		}
	}
	return out
}

// TestGoldenUnits holds the SHA-256 over every Version.Meta and
// Version.Code of the emitted units byte-identical to
// testdata/golden_units.json (generated on the commit before emission
// was rebuilt), at GOMAXPROCS 1 and 4.
func TestGoldenUnits(t *testing.T) {
	checkGolden(t, goldenUnitsPath, computeGoldenUnits)
}
