package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/tunedb"
)

// seedDB creates a database under dir with one eval-only key and one
// key carrying a front, and returns both keys.
func seedDB(t *testing.T, dir string) (evalOnly, withFront tunedb.Key) {
	t.Helper()
	sig := machine.SignatureOf(machine.Westmere())
	evalOnly = tunedb.Key{
		Fingerprint: "pgaaaaaaaaaaaaaaaa",
		MachineSig:  sig.Key(),
		Objectives:  "time+resources",
		SpaceHash:   "sp0000000000000001",
	}
	withFront = evalOnly
	withFront.Fingerprint = "pgbbbbbbbbbbbbbbbb"

	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if err := db.PutEval(evalOnly, []int64{4, 8}, []float64{1.5, 2}); err != nil {
		t.Fatalf("PutEval: %v", err)
	}
	if err := db.PutEval(withFront, []int64{2, 2}, []float64{0.5, 4}); err != nil {
		t.Fatalf("PutEval: %v", err)
	}
	rec := tunedb.FrontRecord{
		Key:            withFront,
		Machine:        sig,
		ObjectiveNames: []string{"time", "resources"},
		Points: []tunedb.FrontPoint{
			{Config: []int64{2, 2}, Objectives: []float64{0.5, 4}},
			{Config: []int64{8, 1}, Objectives: []float64{0.9, 1}},
		},
		Evaluations: 2,
		Iterations:  1,
	}
	if err := db.PutFront(rec); err != nil {
		t.Fatalf("PutFront: %v", err)
	}
	return evalOnly, withFront
}

// runCmd invokes one subcommand and returns stdout; it fails the test
// on error unless wantErr is true, in which case it returns the error
// message.
func runCmd(t *testing.T, dir, cmd string, args []string, wantErr bool) string {
	t.Helper()
	var stdout, stderr strings.Builder
	err := run(dir, cmd, args, &stdout, &stderr)
	if wantErr {
		if err == nil {
			t.Fatalf("%s %v: expected error, got none", cmd, args)
		}
		return err.Error()
	}
	if err != nil {
		t.Fatalf("%s %v: %v", cmd, args, err)
	}
	return stdout.String()
}

func TestRunSubcommands(t *testing.T) {
	dir := t.TempDir()
	evalOnly, withFront := seedDB(t, dir)

	out := runCmd(t, dir, "ls", nil, false)
	for _, want := range []string{evalOnly.Fingerprint, withFront.Fingerprint, "evals", "front"} {
		if !strings.Contains(out, want) {
			t.Errorf("ls output missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, dir, "show", []string{withFront.Fingerprint}, false)
	if !strings.Contains(out, withFront.String()) || !strings.Contains(out, "2 Pareto points") {
		t.Errorf("show output unexpected:\n%s", out)
	}

	out = runCmd(t, dir, "export", nil, false) // only one stored front: no prefix needed
	for _, want := range []string{`"time"`, `"resources"`, `"value"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export output missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, dir, "compact", nil, false)
	if !strings.Contains(out, "compacted") {
		t.Errorf("compact output unexpected: %q", out)
	}

	other := t.TempDir()
	seedDB(t, other)
	out = runCmd(t, dir, "merge", []string{other}, false)
	if !strings.Contains(out, "merged 0 evaluations and 0 fronts") {
		t.Errorf("merge of identical database should adopt nothing: %q", out)
	}
}

func TestStatsSubcommand(t *testing.T) {
	dir := t.TempDir()
	seedDB(t, dir)
	out := runCmd(t, dir, "stats", nil, false)
	for _, want := range []string{"shard", "segments", "live", "dead", "bloomFPR", "total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// 2 keys: 2 evals + 1 front + 2 registry entries = 5 live keys.
	if !strings.Contains(out, "5 live keys") {
		t.Errorf("stats live-key count unexpected:\n%s", out)
	}
}

func TestScanSubcommand(t *testing.T) {
	dir := t.TempDir()
	evalOnly, withFront := seedDB(t, dir)

	// A program-fingerprint prefix selects only that program.
	out := runCmd(t, dir, "scan", []string{evalOnly.Fingerprint}, false)
	if !strings.Contains(out, evalOnly.Fingerprint) {
		t.Errorf("scan output missing %q:\n%s", evalOnly.Fingerprint, out)
	}
	if strings.Contains(out, withFront.Fingerprint) {
		t.Errorf("scan leaked non-matching key:\n%s", out)
	}
	// No prefix lists everything.
	out = runCmd(t, dir, "scan", nil, false)
	if !strings.Contains(out, evalOnly.Fingerprint) || !strings.Contains(out, withFront.Fingerprint) {
		t.Errorf("unprefixed scan incomplete:\n%s", out)
	}
	// An unmatched prefix says so.
	out = runCmd(t, dir, "scan", []string{"pgzzzz"}, false)
	if !strings.Contains(out, "no keys match") {
		t.Errorf("unmatched scan output: %q", out)
	}
}

func TestFsckSubcommand(t *testing.T) {
	dir := t.TempDir()
	seedDB(t, dir)

	out := runCmd(t, dir, "fsck", nil, false)
	if !strings.Contains(out, "fsck: ok") || !strings.Contains(out, "shard 00: ok") {
		t.Errorf("clean fsck output unexpected:\n%s", out)
	}

	// Flip one byte inside a segment's data region: fsck must detect it
	// and exit nonzero.
	segs, err := filepath.Glob(filepath.Join(dir, "store", "shard-*", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files to corrupt: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := runCmd(t, dir, "fsck", nil, true); !strings.Contains(msg, "corruption detected") {
		t.Errorf("fsck on corrupted store: %s", msg)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	seedDB(t, dir)

	if msg := runCmd(t, dir, "frobnicate", nil, true); !strings.Contains(msg, "unknown command") {
		t.Errorf("unexpected error: %s", msg)
	}
	if msg := runCmd(t, dir, "show", []string{"nope"}, true); !strings.Contains(msg, "no stored front") {
		t.Errorf("unexpected error: %s", msg)
	}
	if msg := runCmd(t, dir, "merge", nil, true); !strings.Contains(msg, "exactly one source") {
		t.Errorf("unexpected error: %s", msg)
	}

	// An ambiguous prefix must be rejected, not silently resolved.
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sig := machine.SignatureOf(machine.Barcelona())
	second := tunedb.Key{
		Fingerprint: "pgbbbbbbbbbbbbbbbb",
		MachineSig:  sig.Key(),
		Objectives:  "time+resources",
		SpaceHash:   "sp0000000000000001",
	}
	if err := db.PutFront(tunedb.FrontRecord{
		Key: second, Machine: sig,
		ObjectiveNames: []string{"time", "resources"},
		Points:         []tunedb.FrontPoint{{Config: []int64{1, 1}, Objectives: []float64{1, 1}}},
	}); err != nil {
		t.Fatalf("PutFront: %v", err)
	}
	db.Close()
	if msg := runCmd(t, dir, "show", []string{"pgbbbb"}, true); !strings.Contains(msg, "ambiguous") {
		t.Errorf("unexpected error: %s", msg)
	}
}

// flipRecord flips one byte inside the value of the store record named
// record ("k|<key>", "f|<key>") in the one segment of the database at
// dir that holds it, so reading that record fails its checksum.
func flipRecord(t *testing.T, dir, record string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "store", "shard-*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, []byte(record))
		if at < 0 {
			continue
		}
		data[at+len(record)+4] ^= 0x20 // inside the record's JSON value
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped != 1 {
		t.Fatalf("record %s is in %d segments, want 1", record, flipped)
	}
}

// TestUnreadableRegistryIsAnError: with a byte of a key's registry
// record flipped in its segment, ls, show and export report the read
// error — which main turns into exit status 1 — instead of an empty
// database or a missing front.
func TestUnreadableRegistryIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, withFront := seedDB(t, dir)
	flipRecord(t, dir, "k|"+withFront.String())
	for _, c := range []struct {
		cmd  string
		args []string
	}{{"ls", nil}, {"show", []string{withFront.Fingerprint}}, {"export", nil}} {
		var stdout, stderr strings.Builder
		err := run(dir, c.cmd, c.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%s %v over a damaged registry succeeded, printing %q", c.cmd, c.args, stdout.String())
			continue
		}
		if strings.Contains(err.Error(), "no stored front") {
			t.Errorf("%s %v: the read error was reported as %q", c.cmd, c.args, err)
		}
		if strings.Contains(stdout.String(), "database is empty") {
			t.Errorf("%s %v: printed %q", c.cmd, c.args, stdout.String())
		}
	}
}

// TestMergeOverUnreadableFrontIsAnError: merge into a database whose
// front cannot be read reports the read error — which main turns into
// exit status 1 — instead of replacing that front with the incoming
// one.
func TestMergeOverUnreadableFrontIsAnError(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	_, withFront := seedDB(t, dir)
	seedDB(t, other)
	flipRecord(t, dir, "f|"+withFront.String())
	var stdout, stderr strings.Builder
	err := run(dir, "merge", []string{other}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("merge over an unreadable front succeeded, printing %q", stdout.String())
	}
	if !strings.Contains(err.Error(), "tunedb:") {
		t.Errorf("merge error %q does not name the database", err)
	}
}
