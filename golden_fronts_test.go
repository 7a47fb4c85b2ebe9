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

var updateGolden = flag.Bool("update", false, "regenerate the testdata/golden_*.json files of the selected Golden tests, testdata/examples of TestExamples and testdata/api.txt of TestPublicAPIPinned, from the current code")

const (
	goldenFrontsPath = "testdata/golden_fronts.json"
	goldenUnitsPath  = "testdata/golden_units.json"
)

// goldenFront pins one fixed-seed search: the SHA-256 of its
// export.FrontJSON bytes, its evaluation count E and its iteration
// count.
type goldenFront struct {
	SHA256     string `json:"sha256"`
	E          int    `json:"e"`
	Iterations int    `json:"iterations"`
}

// goldenVariant is one search shape of the golden file. Every cell runs
// with the 1% simulator noise cmd/autotune and the benchmark use.
type goldenVariant struct {
	name string
	opts func(kernel string, seed int64) []Option
	// all runs the paper's 5 kernels × 2 machines × seeds {1,2}; the
	// narrow variants run mm and jacobi-2d on the same machines and
	// seeds.
	all bool
	// warm runs the search twice over one WithDB+WithWarmStart database
	// and pins the second run: what each method takes from the stored
	// evaluations and the stored front.
	warm bool
}

func fixedOpts(opts ...Option) func(string, int64) []Option {
	return func(string, int64) []Option { return opts }
}

// bruteForceGrid selects brute force over an explicit grid: one point
// count per dimension of the kernel's space (tiles..., threads).
func bruteForceGrid(kernel string, _ int64) []Option {
	grid := map[string][]int{"mm": {4, 4, 4, 8}, "jacobi-2d": {6, 6, 8}}
	return []Option{WithMethod(BruteForce), WithGridPoints(grid[kernel])}
}

// goldenMethods selects every driver method.
var goldenMethods = []struct {
	name string
	opts func(kernel string, seed int64) []Option
}{
	{"rs-gde3", fixedOpts()},
	{"gde3", fixedOpts(WithMethod(GDE3))},
	{"nsga2", fixedOpts(WithMethod(NSGA2))},
	{"motpe", fixedOpts(WithMethod(MOTPE))},
	{"random", fixedOpts(WithMethod(RandomSearch))},
	{"grid", fixedOpts(WithMethod(GridSearch))},
	{"race", fixedOpts(WithRace(RaceOptions{}))},
	{"brute-force", bruteForceGrid},
}

// goldenVariants are the search shapes the golden file covers: the ten
// default-option shapes on every kernel, then — on mm and jacobi-2d —
// the island model of the other two evolutionary methods, and every
// method under non-default optimizer options and a random budget (which
// pins the fields each method reads) and warm-started from a database
// its own first run filled.
func goldenVariants() []goldenVariant {
	vs := []goldenVariant{
		{name: "rs-gde3", opts: fixedOpts(), all: true},
		{name: "gde3", opts: fixedOpts(WithMethod(GDE3)), all: true},
		{name: "nsga2", opts: fixedOpts(WithMethod(NSGA2)), all: true},
		{name: "random", opts: fixedOpts(WithMethod(RandomSearch)), all: true},
		{name: "grid", opts: fixedOpts(WithMethod(GridSearch)), all: true},
		{name: "race", opts: fixedOpts(WithRace(RaceOptions{})), all: true},
		{name: "rs-gde3+surrogate", opts: fixedOpts(WithSurrogate(0)), all: true},
		{name: "rs-gde3+islands(4,5)", opts: fixedOpts(WithIslands(4, 5)), all: true},
		{name: "rs-gde3+energy", opts: fixedOpts(WithEnergyObjective()), all: true},
		{name: "motpe", opts: fixedOpts(WithMethod(MOTPE)), all: true},
		{name: "gde3+islands(4,5)", opts: fixedOpts(WithMethod(GDE3), WithIslands(4, 5))},
		{name: "nsga2+islands(4,5)", opts: fixedOpts(WithMethod(NSGA2), WithIslands(4, 5))},
		{name: "brute-force+gridpoints", opts: bruteForceGrid},
	}
	for _, m := range goldenMethods {
		vs = append(vs,
			goldenVariant{name: m.name + "+tuned", opts: func(k string, seed int64) []Option {
				return append([]Option{WithRandomBudget(200), WithOptimizerOptions(OptimizerOptions{
					PopSize: 12, CR: 0.7, F: 0.4, Stagnation: 2, MaxIterations: 15, Seed: seed})}, m.opts(k, seed)...)
			}},
			goldenVariant{name: m.name + "+warm", opts: m.opts, warm: true})
	}
	return vs
}

// goldenCell runs one golden cell on the current code.
func goldenCell(t *testing.T, id, kernel string, opts []Option, warm bool) goldenFront {
	t.Helper()
	if warm {
		db, err := OpenDB(t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		defer db.Close()
		opts = append(opts, WithDB(db), WithWarmStart())
		if _, err := Tune(kernel, opts...); err != nil {
			t.Fatalf("%s (cold run): %v", id, err)
		}
	}
	res, err := Tune(kernel, opts...)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return goldenFront{SHA256: frontSHA256(t, id, res.Front, res.Unit.ObjectiveNames), E: res.Evaluations, Iterations: res.Iterations}
}

// frontSHA256 hashes the export.FrontJSON bytes of a front.
func frontSHA256(t *testing.T, id string, front []Point, objectiveNames []string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := export.FrontJSON(&buf, front, objectiveNames); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// computeGoldenFronts runs every golden cell on the current code.
func computeGoldenFronts(t *testing.T) map[string]goldenFront {
	t.Helper()
	out := map[string]goldenFront{}
	for _, v := range goldenVariants() {
		kernels := []string{"mm", "jacobi-2d"}
		if v.all {
			kernels = []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"}
		}
		for _, k := range kernels {
			for _, m := range []string{"Westmere", "Barcelona"} {
				for seed := int64(1); seed <= 2; seed++ {
					id := fmt.Sprintf("%s/%s/%s/seed%d", v.name, k, m, seed)
					opts := append([]Option{WithMachine(m), WithSeed(seed), WithNoise(0.01)}, v.opts(k, seed)...)
					out[id] = goldenCell(t, id, k, opts, v.warm)
				}
			}
		}
	}
	// The driver's default brute-force grid (12 points per tile
	// dimension, every thread count), once.
	id := "brute-force+default-grid/jacobi-2d/Westmere/seed1"
	out[id] = goldenCell(t, id, "jacobi-2d", []Option{WithMachine("Westmere"), WithSeed(1), WithNoise(0.01), WithMethod(BruteForce)}, false)
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
