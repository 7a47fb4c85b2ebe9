package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/tunedb"
)

// journalCase is one fixed-seed checkpointed search whose journal bytes
// are pinned.
type journalCase struct {
	id      string
	kernel  string
	machine string
	method  Method
	seed    int64
	islands int
	// warm seeds the search from a database a cold run of seed 1 filled.
	warm      bool
	surrogate bool
}

// journalCases cover every method that checkpoints, serial and as four
// islands, cold and warm-seeded, and one screened search.
var journalCases = []journalCase{
	{id: "rs-gde3/mm/Westmere/seed1", kernel: "mm", machine: "Westmere", method: MethodRSGDE3, seed: 1},
	{id: "gde3/jacobi-2d/Barcelona/seed2", kernel: "jacobi-2d", machine: "Barcelona", method: MethodGDE3, seed: 2},
	{id: "nsga2/dsyrk/Westmere/seed1", kernel: "dsyrk", machine: "Westmere", method: MethodNSGA2, seed: 1},
	{id: "motpe/mm/Westmere/seed1", kernel: "mm", machine: "Westmere", method: MethodMOTPE, seed: 1},
	{id: "rs-gde3/islands4/jacobi-2d/Westmere/seed3", kernel: "jacobi-2d", machine: "Westmere", method: MethodRSGDE3, seed: 3, islands: 4},
	{id: "gde3/islands4/mm/Barcelona/seed1", kernel: "mm", machine: "Barcelona", method: MethodGDE3, seed: 1, islands: 4},
	{id: "nsga2/islands4/dsyrk/Westmere/seed2", kernel: "dsyrk", machine: "Westmere", method: MethodNSGA2, seed: 2, islands: 4},
	{id: "rs-gde3/warm/mm/Westmere/seed2", kernel: "mm", machine: "Westmere", method: MethodRSGDE3, seed: 2, warm: true},
	{id: "motpe/warm/dsyrk/Westmere/seed2", kernel: "dsyrk", machine: "Westmere", method: MethodMOTPE, seed: 2, warm: true},
	{id: "gde3/islands4/warm/jacobi-2d/Westmere/seed2", kernel: "jacobi-2d", machine: "Westmere", method: MethodGDE3, seed: 2, islands: 4, warm: true},
	{id: "gde3/surrogate/2mm/Westmere/seed1", kernel: "2mm", machine: "Westmere", method: MethodGDE3, seed: 1, surrogate: true},
}

// journalPin is what testdata/checkpoint_journals.json records of one
// journal.
type journalPin struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

// writeJournal runs c checkpointed and returns the journal it wrote.
func writeJournal(t *testing.T, c journalCase) []byte {
	t.Helper()
	m, err := machine.ByName(c.machine)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opt := Options{
		Machine:   m,
		Method:    c.method,
		Optimizer: optimizer.Options{Seed: c.seed},
		Islands:   c.islands,
		NoiseAmp:  0.01,
		Surrogate: c.surrogate,
	}
	if c.warm {
		db, err := tunedb.Open(filepath.Join(dir, "db"))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		cold := opt
		cold.DB, cold.Optimizer.Seed = db, 1
		if _, err := TuneKernel(c.kernel, cold); err != nil {
			t.Fatalf("%s: cold run: %v", c.id, err)
		}
		opt.DB, opt.WarmStart = db, true
	}
	opt.CheckpointPath = filepath.Join(dir, "search.ckpt")
	if _, err := TuneKernel(c.kernel, opt); err != nil {
		t.Fatalf("%s: %v", c.id, err)
	}
	data, err := os.ReadFile(opt.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointJournalsPinned holds the checkpoint journal — every
// byte of every frame — of fixed-seed searches to the SHA-256 hashes in
// testdata/checkpoint_journals.json, at GOMAXPROCS 1 and 4. An island
// search's journal is pinned too: its frames hold the trace sorted by
// configuration, not in the order the islands finished in. -update
// regenerates the file.
func TestCheckpointJournalsPinned(t *testing.T) {
	const path = "testdata/checkpoint_journals.json"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := map[string]journalPin{}
			for _, c := range journalCases {
				data := writeJournal(t, c)
				sum := sha256.Sum256(data)
				got[c.id] = journalPin{SHA256: hex.EncodeToString(sum[:]), Bytes: len(data)}
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
			var want map[string]journalPin
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
				bad = append(bad, fmt.Sprintf("%s holds %d journals, the cases %d", path, len(want), len(got)))
			}
			if len(bad) > 0 {
				t.Fatalf("checkpoint journals differ from %s:\n%s", path, strings.Join(bad, "\n"))
			}
		})
	}
}
