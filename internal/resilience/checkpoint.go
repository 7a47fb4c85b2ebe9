package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"

	"autotune/internal/chaos"
	"autotune/internal/optimizer"
	"autotune/internal/store"
)

// snapKey is the record key of a generation snapshot: a journal frame
// holds one record, snapKey → the snapshot's JSON.
const snapKey = "snap"

// Checkpoint is a crash-safe, append-only journal of search snapshots,
// one frame of the store's log (store.AppendFrame: u32 length | u32
// CRC-32C | payload) per snapshot, replayed by the loop that replays a
// shard's WAL (store.ReplayLog). It implements optimizer.Checkpointer:
// every completed generation appends one frame and syncs, so a crash at
// any instant loses at most the generation in flight. Loading folds the
// journal — the latest complete snapshot wins, with the evaluation
// traces of every frame accumulated for cache priming.
//
// A torn tail — the last frame cut short or not verifying — is what a
// crash mid-append leaves: the fold ends before it and resuming
// truncates it away. A frame that does not verify although all of it
// is there, followed by one that does, is damage appending cannot
// explain and an error. What a length-prefixed log cannot tell from a
// torn tail is a damaged length field: the frames behind it are out of
// reach, the fold ends at an earlier snapshot, and the resumed search
// recomputes the lost generations to the same front, being
// deterministic.
type Checkpoint struct {
	mu sync.Mutex
	f  chaos.File
	// payload and frame are the buffers Save encodes a snapshot and
	// frames it into, reused from one generation to the next.
	payload, frame []byte
}

// CreateCheckpoint starts a fresh checkpoint journal at path,
// truncating any existing file.
func CreateCheckpoint(path string) (*Checkpoint, error) {
	f, err := chaos.OS{}.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resilience: creating checkpoint: %w", err)
	}
	return &Checkpoint{f: f}, nil
}

// ResumeCheckpoint opens an existing checkpoint journal for
// continuation: it folds the journal into the latest resumable
// snapshot (with the full accumulated evaluation history for cache
// priming), truncates a torn tail left by a crash mid-append, and
// reopens the file so subsequent snapshots append after the fold
// point.
func ResumeCheckpoint(path string) (*Checkpoint, *optimizer.Snapshot, error) {
	snap, err := foldJournal(path, -1, true)
	if err != nil {
		return nil, nil, err
	}
	f, err := chaos.OS{}.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("resilience: reopening checkpoint: %w", err)
	}
	return &Checkpoint{f: f}, snap, nil
}

// LoadCheckpoint folds a checkpoint journal read-only and returns the
// latest complete snapshot with the accumulated evaluation history.
func LoadCheckpoint(path string) (*optimizer.Snapshot, error) {
	return foldJournal(path, -1, false)
}

// TrimCheckpoint cuts a checkpoint journal back to generation gen
// inclusive, discarding all later frames — a deterministic stand-in
// for a crash at that point, used by the resume experiments and the
// crash-sweep tests.
func TrimCheckpoint(path string, gen int) error {
	if gen < 0 {
		return fmt.Errorf("resilience: negative generation %d", gen)
	}
	_, err := foldJournal(path, gen, true)
	return err
}

// Save implements optimizer.Checkpointer: one snapshot frame is
// appended and synced to stable storage before the search continues.
// The snapshot is encoded into buffers the journal keeps, so once they
// have grown to a generation's size Save allocates nothing.
func (c *Checkpoint) Save(s *optimizer.Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return errors.New("resilience: checkpoint is closed")
	}
	var err error
	if c.payload, err = appendSnapshot(c.payload[:0], s); err != nil {
		return fmt.Errorf("resilience: encoding snapshot: %w", err)
	}
	c.frame = store.AppendFrame(c.frame[:0], []string{snapKey}, [][]byte{c.payload})
	if _, err := c.f.Write(c.frame); err != nil {
		return fmt.Errorf("resilience: writing snapshot: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("resilience: syncing checkpoint: %w", err)
	}
	return nil
}

// appendSnapshot appends the JSON of s, byte for byte what
// json.Marshal(s) produces, without the reflection walk; like
// json.Marshal it refuses a NaN or an infinity. foldJournal reads it
// back with json.Unmarshal.
func appendSnapshot(b []byte, s *optimizer.Snapshot) ([]byte, error) {
	b = append(b, `{"method":`...)
	b = appendJSONString(b, s.Method)
	b = append(b, `,"fingerprint":`...)
	b = appendJSONString(b, s.Fingerprint)
	if s.Problem != "" {
		b = append(b, `,"problem":`...)
		b = appendJSONString(b, s.Problem)
	}
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(s.Generation), 10)
	b = append(b, `,"evaluations":`...)
	b = strconv.AppendInt(b, int64(s.Evaluations), 10)
	b = append(b, `,"states":`...)
	var err error
	if s.States == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, st := range s.States {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"pop":`...)
			if b, err = appendMembers(b, st.Pop); err != nil {
				return b, err
			}
			b = append(b, `,"archive":`...)
			if b, err = appendMembers(b, st.Archive); err != nil {
				return b, err
			}
			b = append(b, `,"stagnant":`...)
			b = strconv.AppendInt(b, int64(st.Stagnant), 10)
			b = append(b, `,"draws":`...)
			b = strconv.AppendUint(b, st.Draws, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(s.Evals) > 0 {
		b = append(b, `,"evals":`...)
		if b, err = appendMembers(b, s.Evals); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendMembers appends a population, an archive or an evaluation trace
// — Member and EvalState have the same fields under the same names —
// as a JSON array: null when nil.
func appendMembers[M optimizer.Member | optimizer.EvalState](b []byte, ms []M) ([]byte, error) {
	if ms == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		m := optimizer.Member(ms[i])
		b = append(b, `{"config":`...)
		b = store.AppendJSONInts(b, m.Config)
		b = append(b, `,"objs":`...)
		var err error
		if b, err = store.AppendJSONFloats(b, m.Objs); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendJSONString appends s as a JSON string. A snapshot's method,
// fingerprint and problem tag are printable ASCII that encoding/json
// writes as they are; a string holding anything it would escape — a
// quote, a backslash, a control byte, <, > or &, a byte outside ASCII —
// is handed to it whole.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

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

// errFoldStop ends a bounded fold before the first snapshot beyond the
// generation limit.
var errFoldStop = errors.New("resilience: fold stop")

// foldJournal replays the journal at path and folds its snapshots: the
// latest snapshot's state wins, with the evaluation traces of all
// folded frames accumulated into its Evals. maxGen < 0 folds
// everything; otherwise the fold ends before the first snapshot beyond
// maxGen. With truncate set the file is cut to the folded prefix — a
// torn tail, or the frames beyond maxGen, go. A journal with no
// snapshot to fold, interior damage (see Checkpoint) and a checkpoint
// in the JSONL framing of earlier builds are errors, and leave the file
// as it was.
func foldJournal(path string, maxGen int, truncate bool) (*optimizer.Snapshot, error) {
	var snap *optimizer.Snapshot
	var evals []optimizer.EvalState
	data, valid, err := store.ReplayLog(chaos.OS{}, path, func(recs []store.Record) error {
		if len(recs) != 1 || recs[0].Key != snapKey {
			return fmt.Errorf("resilience: checkpoint %s holds a frame that is not a snapshot", path)
		}
		var s optimizer.Snapshot
		if err := json.Unmarshal(recs[0].Val, &s); err != nil {
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
	switch {
	case data == nil && err != nil: // the read failed, not a frame
		return nil, fmt.Errorf("resilience: reading checkpoint: %w", err)
	case errors.Is(err, errFoldStop): // ended at a frame that verifies
	case err != nil:
		return nil, err
	case bytes.HasPrefix(data, []byte(`{"v":`)):
		return nil, fmt.Errorf("resilience: %s is a pre-frame JSONL checkpoint, which this build does not read (commit ca39811 is the last that does): re-running the same flags without -resume reproduces the front", path)
	case damagedInterior(data[valid:]):
		return nil, fmt.Errorf("resilience: corrupt checkpoint frame at byte %d of %s: a frame that verifies follows it", valid, path)
	}
	if snap == nil {
		if maxGen >= 0 {
			return nil, fmt.Errorf("resilience: checkpoint %s has no snapshot at or before generation %d", path, maxGen)
		}
		return nil, fmt.Errorf("resilience: checkpoint %s holds no complete snapshot", path)
	}
	if truncate && valid < len(data) {
		if err := (chaos.OS{}).Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("resilience: truncating checkpoint: %w", err)
		}
	}
	snap.Evals = evals
	return snap, nil
}

// damagedInterior reports whether tail — what a replay left unread —
// starts with a frame that is all there and does not verify, followed
// by one that does: the discriminator between a torn tail and damage
// inside the journal.
func damagedInterior(tail []byte) bool {
	_, n, err := store.ParseFrame(tail)
	if err == nil || n == 0 {
		return false
	}
	_, _, err = store.ParseFrame(tail[n:])
	return err == nil
}
