// Package v1 is the frozen first-generation tunedb engine: one
// append-only JSONL journal replayed into memory at open. It exists
// for one job — writing and reading authentic v1 databases in the
// migration tests, as the reference the migration is compared against.
// The live engine (internal/tunedb on internal/store) migrates these
// databases on open; nothing else should write this format.
package v1

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// JournalName is the v1 journal file inside a database directory.
const JournalName = "journal.jsonl"

// Record type tags (the v1 journal schema).
const (
	recEval  = "eval"
	recFront = "front"
)

// evalRecord is the v1 journal form of one evaluation.
type evalRecord struct {
	Key        tunedb.Key `json:"key"`
	Config     []int64    `json:"config"`
	Objectives []float64  `json:"objectives"`
}

type evalEntry struct {
	cfg  skeleton.Config
	objs []float64
}

// DB is an open v1 database: the whole journal lives in memory.
type DB struct {
	dir  string
	path string

	mu     sync.Mutex
	f      *os.File
	evals  map[string]map[string]evalEntry
	fronts map[string]tunedb.FrontRecord
	keys   map[string]tunedb.Key
}

// Open opens (creating if necessary) a v1 database in dir, replaying
// the whole journal and truncating a torn tail.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tunedb/v1: %w", err)
	}
	db := &DB{
		dir:    dir,
		path:   filepath.Join(dir, JournalName),
		evals:  map[string]map[string]evalEntry{},
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

func (db *DB) apply(t string, payload json.RawMessage) error {
	switch t {
	case recEval:
		var r evalRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		db.applyEval(r)
	case recFront:
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

func (db *DB) applyEval(r evalRecord) {
	ks := r.Key.String()
	m := db.evals[ks]
	if m == nil {
		m = map[string]evalEntry{}
		db.evals[ks] = m
	}
	cfg := skeleton.Config(r.Config)
	m[cfg.Key()] = evalEntry{cfg: cfg, objs: r.Objectives}
	db.keys[ks] = r.Key
}

func (db *DB) applyFront(r tunedb.FrontRecord) {
	ks := r.Key.String()
	db.fronts[ks] = r
	db.keys[ks] = r.Key
}

// Close flushes and closes the journal; idempotent.
func (db *DB) Close() error {
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

func (db *DB) appendRecord(t string, rec interface{}) error {
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
func (db *DB) PutEval(key tunedb.Key, cfg skeleton.Config, objs []float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	ks := key.String()
	if m := db.evals[ks]; m != nil {
		if old, ok := m[cfg.Key()]; ok && equalObjs(old.objs, objs) {
			return nil
		}
	}
	rec := evalRecord{Key: key, Config: cfg, Objectives: objs}
	if err := db.appendRecord(recEval, rec); err != nil {
		return err
	}
	db.applyEval(rec)
	return nil
}

// PutFront stores a front (points canonically sorted, journal fsynced).
func (db *DB) PutFront(rec tunedb.FrontRecord) error {
	sortFrontPoints(rec.Points)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.appendRecord(recFront, rec); err != nil {
		return err
	}
	db.applyFront(rec)
	if err := db.f.Sync(); err != nil {
		return fmt.Errorf("tunedb/v1: %w", err)
	}
	return nil
}

func sortFrontPoints(pts []tunedb.FrontPoint) {
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

func equalObjs(a, b []float64) bool {
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
func (db *DB) Front(key tunedb.Key) (tunedb.FrontRecord, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.fronts[key.String()]
	return rec, ok
}

// GetEval returns one stored evaluation.
func (db *DB) GetEval(key tunedb.Key, cfg skeleton.Config) ([]float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.evals[key.String()][cfg.Key()]
	return e.objs, ok
}

// EvalCount returns the number of stored evaluations for a key.
func (db *DB) EvalCount(key tunedb.Key) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.evals[key.String()])
}

// Keys lists every key with stored data, sorted by canonical string.
func (db *DB) Keys() []tunedb.Key {
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

// HeapAlloc-friendly iteration for benchmarks: visit every eval.
func (db *DB) ScanEvals(fn func(ks string, cfg skeleton.Config, objs []float64) bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var kss []string
	for ks := range db.evals {
		kss = append(kss, ks)
	}
	sort.Strings(kss)
	for _, ks := range kss {
		var cks []string
		for ck := range db.evals[ks] {
			cks = append(cks, ck)
		}
		sort.Strings(cks)
		for _, ck := range cks {
			e := db.evals[ks][ck]
			if !fn(ks, e.cfg, e.objs) {
				return
			}
		}
	}
}
