// The frozen first-generation tunedb engine: one append-only JSONL
// journal replayed into memory at open. It lives in this test file for
// one job — writing and reading authentic v1 databases in the migration
// tests, as the reference the migration is compared against. The live
// engine (internal/tunedb on internal/store) migrates these databases
// on open; nothing else should write this format.

package tunedb_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// v1JournalName is the v1 journal file inside a database directory.
const v1JournalName = "journal.jsonl"

// Record type tags (the v1 journal schema).
const (
	v1RecEval  = "eval"
	v1RecFront = "front"
)

// v1EvalRecord is the v1 journal form of one evaluation.
type v1EvalRecord struct {
	Key        tunedb.Key `json:"key"`
	Config     []int64    `json:"config"`
	Objectives []float64  `json:"objectives"`
}

type v1EvalEntry struct {
	cfg  skeleton.Config
	objs []float64
}

// v1DB is an open v1 database: the whole journal lives in memory.
type v1DB struct {
	path string

	mu     sync.Mutex
	f      *os.File
	evals  map[string]map[string]v1EvalEntry
	fronts map[string]tunedb.FrontRecord
	keys   map[string]tunedb.Key
}

// openV1 opens (creating if necessary) a v1 database in dir, replaying
// the whole journal and truncating a torn tail.
func openV1(dir string) (*v1DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tunedb/v1: %w", err)
	}
	db := &v1DB{
		path:   filepath.Join(dir, v1JournalName),
		evals:  map[string]map[string]v1EvalEntry{},
		fronts: map[string]tunedb.FrontRecord{},
		keys:   map[string]tunedb.Key{},
	}
	data, err := os.ReadFile(db.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("tunedb/v1: %w", err)
	}
	if len(data) > 0 {
		valid, err := tunedb.ScanJournal(data, func(t string, payload json.RawMessage) error {
			return db.apply(t, payload)
		})
		if err != nil {
			return nil, err
		}
		if valid < len(data) {
			// Torn tail: truncate in place, exactly as v1 recovery did.
			if err := os.WriteFile(db.path+".tmp", data[:valid], 0o644); err != nil {
				return nil, fmt.Errorf("tunedb/v1: recovering torn tail: %w", err)
			}
			if err := os.Rename(db.path+".tmp", db.path); err != nil {
				return nil, fmt.Errorf("tunedb/v1: recovering torn tail: %w", err)
			}
		}
	}
	f, err := os.OpenFile(db.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tunedb/v1: %w", err)
	}
	db.f = f
	return db, nil
}

func (db *v1DB) apply(t string, payload json.RawMessage) error {
	switch t {
	case v1RecEval:
		var r v1EvalRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		db.applyEval(r)
	case v1RecFront:
		var r tunedb.FrontRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		db.applyFront(r)
	default:
		return fmt.Errorf("tunedb/v1: unknown record type %q", t)
	}
	return nil
}

func (db *v1DB) applyEval(r v1EvalRecord) {
	ks := r.Key.String()
	m := db.evals[ks]
	if m == nil {
		m = map[string]v1EvalEntry{}
		db.evals[ks] = m
	}
	cfg := skeleton.Config(r.Config)
	m[cfg.Key()] = v1EvalEntry{cfg: cfg, objs: r.Objectives}
	db.keys[ks] = r.Key
}

func (db *v1DB) applyFront(r tunedb.FrontRecord) {
	ks := r.Key.String()
	db.fronts[ks] = r
	db.keys[ks] = r.Key
}

// Close flushes and closes the journal; idempotent.
func (db *v1DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.f == nil {
		return nil
	}
	err := db.f.Sync()
	if cerr := db.f.Close(); err == nil {
		err = cerr
	}
	db.f = nil
	return err
}

func (db *v1DB) appendRecord(t string, rec interface{}) error {
	if db.f == nil {
		return fmt.Errorf("tunedb/v1: database is closed")
	}
	line, err := tunedb.EncodeRecord(t, rec)
	if err != nil {
		return err
	}
	if _, err := db.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("tunedb/v1: %w", err)
	}
	return nil
}

// PutEval stores one evaluated configuration (deduplicated, as v1 did).
func (db *v1DB) PutEval(key tunedb.Key, cfg skeleton.Config, objs []float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ks := key.String()
	if m := db.evals[ks]; m != nil {
		if old, ok := m[cfg.Key()]; ok && v1EqualObjs(old.objs, objs) {
			return nil
		}
	}
	rec := v1EvalRecord{Key: key, Config: cfg, Objectives: objs}
	if err := db.appendRecord(v1RecEval, rec); err != nil {
		return err
	}
	db.applyEval(rec)
	return nil
}

// PutFront stores a front (points canonically sorted, journal fsynced).
func (db *v1DB) PutFront(rec tunedb.FrontRecord) error {
	v1SortFrontPoints(rec.Points)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.appendRecord(v1RecFront, rec); err != nil {
		return err
	}
	db.applyFront(rec)
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("tunedb/v1: %w", err)
	}
	return nil
}

func v1SortFrontPoints(pts []tunedb.FrontPoint) {
	sort.Slice(pts, func(a, b int) bool {
		oa, ob := pts[a].Objectives, pts[b].Objectives
		for i := 0; i < len(oa) && i < len(ob); i++ {
			if oa[i] != ob[i] {
				return oa[i] < ob[i]
			}
		}
		if len(oa) != len(ob) {
			return len(oa) < len(ob)
		}
		return skeleton.Config(pts[a].Config).Key() < skeleton.Config(pts[b].Config).Key()
	})
}

func v1EqualObjs(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Front returns the stored front for an exact key.
func (db *v1DB) Front(key tunedb.Key) (tunedb.FrontRecord, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.fronts[key.String()]
	return rec, ok
}

// GetEval returns one stored evaluation.
func (db *v1DB) GetEval(key tunedb.Key, cfg skeleton.Config) ([]float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.evals[key.String()][cfg.Key()]
	return e.objs, ok
}

// EvalCount returns the number of stored evaluations for a key.
func (db *v1DB) EvalCount(key tunedb.Key) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.evals[key.String()])
}

// Keys lists every key with stored data, sorted by canonical string.
func (db *v1DB) Keys() []tunedb.Key {
	db.mu.Lock()
	defer db.mu.Unlock()
	strs := make([]string, 0, len(db.keys))
	for ks := range db.keys {
		strs = append(strs, ks)
	}
	sort.Strings(strs)
	out := make([]tunedb.Key, len(strs))
	for i, ks := range strs {
		out[i] = db.keys[ks]
	}
	return out
}

func TestV1RoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := migKey(0)
	if err := db.PutEval(key, skeleton.Config{1, 2, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Identical re-put is a no-op; changed result supersedes.
	if err := db.PutEval(key, skeleton.Config{1, 2, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEval(key, skeleton.Config{1, 2, 3}, []float64{9, 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutFront(migFront(key, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := db.PutEval(key, skeleton.Config{4, 4, 4}, []float64{1, 1}); err == nil {
		t.Fatal("PutEval on closed database succeeded")
	}

	db2, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.EvalCount(key); n != 1 {
		t.Fatalf("EvalCount = %d", n)
	}
	objs, ok := db2.GetEval(key, skeleton.Config{1, 2, 3})
	if !ok || objs[0] != 9 {
		t.Fatalf("GetEval = %v %v", objs, ok)
	}
	if _, ok := db2.Front(key); !ok {
		t.Fatal("front missing")
	}
	keys := db2.Keys()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestV1TornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := migKey(1)
	for i := 0; i < 3; i++ {
		if err := db.PutEval(key, skeleton.Config{int64(i), 2, 3}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, v1JournalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-way.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := openV1(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.EvalCount(key); n != 2 {
		t.Fatalf("recovered %d evals, want 2", n)
	}
	// The tail was truncated on disk.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(data)-10 {
		t.Fatalf("torn tail not truncated: %d bytes", len(after))
	}
}
