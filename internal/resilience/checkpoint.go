package resilience

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"autotune/internal/optimizer"
	"autotune/internal/tunedb"
)

// recSnapshot is the journal record type of one generation snapshot.
const recSnapshot = "snap"

// Checkpoint is a crash-safe, append-only journal of search snapshots,
// framed with the tuning database's CRC-32C envelope. It implements
// optimizer.Checkpointer: every completed generation appends one
// snapshot record and syncs, so a crash at any instant loses at most
// the generation in flight. Loading folds the journal — the latest
// complete snapshot wins, with the evaluation traces of every record
// accumulated for cache priming — and truncates a torn tail exactly
// like the tuning database does.
type Checkpoint struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// CreateCheckpoint starts a fresh checkpoint journal at path,
// truncating any existing file.
func CreateCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: creating checkpoint: %w", err)
	}
	return &Checkpoint{path: path, f: f}, nil
}

// ResumeCheckpoint opens an existing checkpoint journal for
// continuation: it folds the journal into the latest resumable
// snapshot (with the full accumulated evaluation history for cache
// priming), truncates a torn tail left by a crash mid-append, and
// reopens the file so subsequent snapshots append after the fold
// point.
func ResumeCheckpoint(path string) (*Checkpoint, *optimizer.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: reading checkpoint: %w", err)
	}
	snap, validLen, err := foldSnapshots(data, -1)
	if err != nil {
		return nil, nil, err
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("resilience: checkpoint %s holds no complete snapshot", path)
	}
	if validLen < len(data) {
		if err := rewrite(path, data[:validLen]); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: reopening checkpoint: %w", err)
	}
	return &Checkpoint{path: path, f: f}, snap, nil
}

// LoadCheckpoint folds a checkpoint journal read-only and returns the
// latest complete snapshot with the accumulated evaluation history.
func LoadCheckpoint(path string) (*optimizer.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading checkpoint: %w", err)
	}
	snap, _, err := foldSnapshots(data, -1)
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("resilience: checkpoint %s holds no complete snapshot", path)
	}
	return snap, nil
}

// TrimCheckpoint cuts a checkpoint journal back to generation gen
// inclusive, discarding all later records — a deterministic stand-in
// for a crash at that point, used by the resume experiments and the
// crash-sweep tests.
func TrimCheckpoint(path string, gen int) error {
	if gen < 0 {
		return fmt.Errorf("resilience: negative generation %d", gen)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("resilience: reading checkpoint: %w", err)
	}
	snap, validLen, err := foldSnapshots(data, gen)
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("resilience: checkpoint %s has no snapshot at or before generation %d", path, gen)
	}
	return rewrite(path, data[:validLen])
}

// Save implements optimizer.Checkpointer: one framed snapshot record is
// appended and synced to stable storage before the search continues.
func (c *Checkpoint) Save(s *optimizer.Snapshot) error {
	line, err := tunedb.EncodeRecord(recSnapshot, s)
	if err != nil {
		return fmt.Errorf("resilience: encoding snapshot: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return errors.New("resilience: checkpoint is closed")
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("resilience: writing snapshot: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("resilience: syncing checkpoint: %w", err)
	}
	return nil
}

// Path returns the journal's file path.
func (c *Checkpoint) Path() string { return c.path }

// Close flushes and closes the journal. The checkpoint must not be
// used after.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

// errFoldStop ends a bounded fold at the first record beyond the
// generation limit.
var errFoldStop = errors.New("resilience: fold stop")

// foldSnapshots scans a journal image and folds its snapshot records:
// the latest snapshot's state wins, with the evaluation traces of all
// folded records accumulated into its Evals. maxGen < 0 folds
// everything; otherwise records beyond maxGen are excluded and validLen
// marks the byte offset just before the first excluded record (the trim
// point). A torn tail stops the fold cleanly at validLen; interior
// corruption is an error.
func foldSnapshots(data []byte, maxGen int) (snap *optimizer.Snapshot, validLen int, err error) {
	var evals []optimizer.EvalState
	validLen, err = tunedb.ScanJournal(data, func(t string, payload json.RawMessage) error {
		if t != recSnapshot {
			return fmt.Errorf("resilience: unexpected record type %q in checkpoint", t)
		}
		var s optimizer.Snapshot
		if err := json.Unmarshal(payload, &s); err != nil {
			return fmt.Errorf("resilience: decoding snapshot: %w", err)
		}
		if maxGen >= 0 && s.Generation > maxGen {
			return errFoldStop
		}
		evals = append(evals, s.Evals...)
		s.Evals = nil
		snap = &s
		return nil
	})
	if errors.Is(err, errFoldStop) {
		err = nil
	}
	if err != nil {
		return nil, validLen, err
	}
	if snap != nil {
		snap.Evals = evals
	}
	return snap, validLen, nil
}

// rewrite atomically replaces the journal file's contents.
func rewrite(path string, data []byte) error {
	if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
		return fmt.Errorf("resilience: rewriting checkpoint: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("resilience: rewriting checkpoint: %w", err)
	}
	return nil
}
