package tunedb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

func migKey(i int) tunedb.Key {
	return tunedb.Key{
		Fingerprint: fmt.Sprintf("pg%016x", i+1),
		MachineSig:  machine.SignatureOf(machine.Westmere()).Key(),
		Objectives:  "time+resources",
		SpaceHash:   "sp0000000000000001",
	}
}

func evalCount(t *testing.T, db *tunedb.DB, key tunedb.Key) int {
	t.Helper()
	n, err := db.EvalCount(key)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func migFront(key tunedb.Key, gen int) tunedb.FrontRecord {
	return tunedb.FrontRecord{
		Key:            key,
		Machine:        machine.SignatureOf(machine.Westmere()),
		ObjectiveNames: []string{"time", "resources"},
		Points: []tunedb.FrontPoint{
			{Config: []int64{64, 64, int64(gen + 1)}, Objectives: []float64{0.5, float64(gen + 8)}},
			{Config: []int64{32, 32, 16}, Objectives: []float64{0.3, 16}},
		},
		Evaluations: 100 + gen,
		Iterations:  10,
	}
}

// buildV1 writes an authentic v1 journal database with nKeys keys,
// evalsPer evaluations each, and a front (superseded once) per key.
func buildV1(t *testing.T, dir string, nKeys, evalsPer int) {
	t.Helper()
	db, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nKeys; k++ {
		key := migKey(k)
		for i := 0; i < evalsPer; i++ {
			cfg := skeleton.Config{int64(i + 1), 64, 8}
			if err := db.PutEval(key, cfg, []float64{float64(i), 8}); err != nil {
				t.Fatal(err)
			}
		}
		// A known failure, and a superseded front generation.
		if err := db.PutEval(key, skeleton.Config{999, 1, 1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := db.PutFront(migFront(key, 0)); err != nil {
			t.Fatal(err)
		}
		if err := db.PutFront(migFront(key, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// frontJSON renders a front deterministically for byte-identity checks.
func frontJSON(t *testing.T, rec tunedb.FrontRecord, ok bool) []byte {
	t.Helper()
	if !ok {
		t.Fatal("front missing")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMigrationPreservesFrontsByteIdentically: Front results must be
// byte-identical (as canonical JSON) before and after migration, and
// every evaluation must carry over, including known failures.
func TestMigrationPreservesFrontsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	const nKeys, evalsPer = 5, 7
	buildV1(t, dir, nKeys, evalsPer)

	// Capture v1-visible state.
	old, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantFronts := make([][]byte, nKeys)
	for k := 0; k < nKeys; k++ {
		rec, ok := old.Front(migKey(k))
		wantFronts[k] = frontJSON(t, rec, ok)
	}
	wantKeys := old.Keys()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// Open with the live engine: migrates in place.
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := 0; k < nKeys; k++ {
		key := migKey(k)
		rec, ok := db.Front(key)
		got := frontJSON(t, rec, ok)
		if !bytes.Equal(got, wantFronts[k]) {
			t.Fatalf("front %d differs after migration:\n old %s\n new %s", k, wantFronts[k], got)
		}
		if n := evalCount(t, db, key); n != evalsPer+1 {
			t.Fatalf("EvalCount(%d) = %d, want %d", k, n, evalsPer+1)
		}
		// The known failure survived as a failure.
		objs, ok := db.GetEval(key, skeleton.Config{999, 1, 1})
		if !ok || objs != nil {
			t.Fatalf("known failure lost in migration: %v %v", objs, ok)
		}
	}
	gotKeys := db.Keys()
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("key count %d != %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key[%d] = %v, want %v", i, gotKeys[i], wantKeys[i])
		}
	}

	// The journal is archived, not deleted; the store is in place.
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("journal still present after migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl.v1")); err != nil {
		t.Fatalf("archived journal missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); err != nil {
		t.Fatalf("store directory missing: %v", err)
	}
}

// TestMigrationIsOneShot: reopening an already-migrated database must
// not re-run migration or lose post-migration writes.
func TestMigrationIsOneShot(t *testing.T) {
	dir := t.TempDir()
	buildV1(t, dir, 1, 2)
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	newKey := migKey(99)
	if err := db.PutEval(newKey, skeleton.Config{5, 5, 5}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := evalCount(t, db2, newKey); n != 1 {
		t.Fatalf("post-migration write lost on reopen: %d", n)
	}
	if n := evalCount(t, db2, migKey(0)); n != 3 {
		t.Fatalf("migrated evals = %d, want 3", n)
	}
}

// TestMigrationTornTailSweep truncates the v1 journal at every byte of
// its final record: migration must succeed with the valid prefix, as
// v1 recovery would have.
func TestMigrationTornTailSweep(t *testing.T) {
	ref := t.TempDir()
	buildV1(t, ref, 1, 3)
	data, err := os.ReadFile(filepath.Join(ref, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	key := migKey(0)
	for cut := lastStart; cut < len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := tunedb.Open(dir)
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
		}
		// The torn record is the second PutFront; the prefix holds all
		// evals (3 + 1 failure) and the first front generation.
		if n := evalCount(t, db, key); n != 4 {
			t.Fatalf("cut at %d: EvalCount = %d, want 4", cut, n)
		}
		rec, ok := db.Front(key)
		if !ok || rec.Evaluations != 100 {
			t.Fatalf("cut at %d: front = %+v %v, want generation 0", cut, rec, ok)
		}
		// The migrated database is writable and durable.
		if err := db.PutEval(key, skeleton.Config{7, 7, 7}, []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := tunedb.Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if n := evalCount(t, again, key); n != 5 {
			t.Fatalf("cut at %d: post-recovery evals = %d, want 5", cut, n)
		}
		again.Close()
	}
}

// TestMigrationInteriorCorruptionErrors: a damaged record followed by
// valid ones must abort migration with an error, leaving the journal
// untouched.
func TestMigrationInteriorCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	buildV1(t, dir, 1, 3)
	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[bytes.IndexByte(corrupt, '{')+20] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tunedb.Open(dir); err == nil {
		t.Fatal("interior corruption migrated without error")
	}
	// The journal was not consumed: still there for forensics.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal removed by failed migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Fatal("failed migration left a store directory in place")
	}
}

// TestMigrationCrashBetweenRenames simulates dying after the store
// rename but before the journal archival (satellite: kill-after-rename
// crash test): both store/ and journal.jsonl exist. Reopening must
// finish the archival without replaying the journal over the store.
func TestMigrationCrashBetweenRenames(t *testing.T) {
	dir := t.TempDir()
	buildV1(t, dir, 2, 3)
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Post-migration write that a re-migration replay would clobber.
	key := migKey(0)
	if err := db.PutEval(key, skeleton.Config{1, 1, 2}, []float64{42, 42}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: resurrect the journal beside the store.
	if err := os.Rename(filepath.Join(dir, "journal.jsonl.v1"), filepath.Join(dir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	db2, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if objs, ok := db2.GetEval(key, skeleton.Config{1, 1, 2}); !ok || objs[0] != 42 {
		t.Fatalf("store state clobbered by resumed migration: %v %v", objs, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatal("resumed migration did not archive the journal")
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl.v1")); err != nil {
		t.Fatalf("archived journal missing after resume: %v", err)
	}
}

// TestMigrationAbandonedBuildDiscarded: a crash mid-build leaves
// store.migrating; the next open must discard it and migrate fresh.
func TestMigrationAbandonedBuildDiscarded(t *testing.T) {
	dir := t.TempDir()
	buildV1(t, dir, 1, 2)
	// Fake a half-built store.
	stale := filepath.Join(dir, "store.migrating")
	if err := os.MkdirAll(filepath.Join(stale, "shard-00"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "garbage"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := evalCount(t, db, migKey(0)); n != 3 {
		t.Fatalf("EvalCount = %d, want 3", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("abandoned migration build not discarded")
	}
}

// TestMigrationFutureSchemaTornTail: a single future-schema record with
// nothing valid after it is a torn tail (v1 semantics): migration
// yields an empty database rather than an error.
func TestMigrationFutureSchemaTornTail(t *testing.T) {
	dir := t.TempDir()
	line := `{"v":2,"t":"eval","crc":0,"d":{}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Keys(); len(got) != 0 {
		t.Fatalf("future-schema record applied: %v", got)
	}
}
