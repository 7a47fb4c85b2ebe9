package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"autotune/internal/export"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// chainPin is what testdata/golden_chain.json records of one cell: a
// search's front (SHA-256 of export.FrontJSON), E and iteration count,
// or the SHA-256 of what a search leaves in its database.
type chainPin struct {
	FrontSHA256 string `json:"front_sha256,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
	Iterations  int    `json:"iterations,omitempty"`
	DBSHA256    string `json:"db_sha256,omitempty"`
}

// chainCells are the evaluator-chain cells, keyed by a cell name that
// the kernel completes. A search cell is the second of two identical
// runs over one database, the second warm-started: the pin holds that
// warm-start records reach the surrogate model. A database cell is one
// cold run.
var chainCells = map[string]struct {
	db  bool
	set func(*Options)
}{
	"surrogate+warm": {false, func(o *Options) { o.Surrogate = true }},
	"surrogate+warm+islands(4,5)": {false, func(o *Options) {
		o.Surrogate, o.Islands, o.MigrationInterval = true, 4, 5
	}},
	"db":             {true, func(*Options) {}},
	"db+timeout(1h)": {true, func(o *Options) { o.EvalTimeout = time.Hour }},
}

// dbSHA256 hashes what db holds of key: every ScanEvals("") record in
// scan order, then the key's front record.
func dbSHA256(t *testing.T, db *tunedb.DB, key tunedb.Key) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	var encErr error
	err := db.ScanEvals("", func(ks string, cfg skeleton.Config, objs []float64) bool {
		encErr = enc.Encode([]any{ks, cfg, objs})
		return encErr == nil
	})
	if err != nil || encErr != nil {
		t.Fatal(err, encErr)
	}
	rec, ok := db.Front(key)
	if !ok {
		t.Fatalf("no front stored under %s", key)
	}
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chainCell runs one cell on kernel and pins it.
func chainCell(t *testing.T, id, kernel string, db bool, set func(*Options)) chainPin {
	t.Helper()
	d, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	opt := Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 1}, NoiseAmp: 0.01, DB: d}
	set(&opt)
	out, err := TuneKernel(kernel, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if db {
		key, err := ProblemKey(kernel, opt)
		if err != nil {
			t.Fatal(err)
		}
		return chainPin{DBSHA256: dbSHA256(t, d, key)}
	}
	opt.WarmStart = true
	if out, err = TuneKernel(kernel, opt); err != nil {
		t.Fatalf("%s: warm run: %v", id, err)
	}
	var buf bytes.Buffer
	if err := export.FrontJSON(&buf, out.Result.Front, out.Unit.ObjectiveNames); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return chainPin{FrontSHA256: hex.EncodeToString(sum[:]), Evaluations: out.Result.Evaluations, Iterations: out.Result.Iterations}
}

// TestGoldenChain holds what the layers of the evaluator chain do
// together — the surrogate screen trained from a warm start, with and
// without islands, and the database a run leaves behind, with and
// without the watchdog — to testdata/golden_chain.json, for mm and
// jacobi-2d on Westmere at seed 1 and noise 0.01, at GOMAXPROCS 1 and 4.
// The file was generated on the commit before the chain was assembled
// in one place. -update regenerates it.
func TestGoldenChain(t *testing.T) {
	const path = "testdata/golden_chain.json"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := map[string]chainPin{}
			for name, c := range chainCells {
				for _, kernel := range []string{"mm", "jacobi-2d"} {
					id := name + "/" + kernel + "/Westmere/seed1"
					got[id] = chainCell(t, id, kernel, c.db, c.set)
				}
			}
			if *update {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]chainPin
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			var bad []string
			for id, pin := range got {
				if want[id] != pin {
					bad = append(bad, fmt.Sprintf("%s: got %+v, want %+v", id, pin, want[id]))
				}
			}
			if len(want) != len(got) {
				bad = append(bad, fmt.Sprintf("%s holds %d cells, the test %d", path, len(want), len(got)))
			}
			if len(bad) > 0 {
				t.Fatalf("evaluator chain differs from %s:\n%s", path, strings.Join(bad, "\n"))
			}
		})
	}
}
