package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"autotune/internal/chaos"
)

// shard is one independent slice of the store: its own directory, WAL,
// memtable and segment list. Writers on different shards share nothing.
type shard struct {
	st  *Store
	id  int
	dir string

	mu       sync.RWMutex
	wal      chaos.File
	walBytes int64
	walDirty bool   // unsynced WAL appends pending
	walFrame []byte // the last frame appended, its buffer reused by the next
	mem      map[string][]byte
	memBytes int
	segs     []*segment // recency order: oldest first
	nextSeq  uint64
	closed   bool

	// failErr marks the shard failed/read-only after a WAL append,
	// fsync or truncate fault: the WAL file can no longer be trusted to
	// hold what a retry would assume (a failed fsync may already have
	// dropped the pages), so the shard takes no further writes until
	// recoverLocked rebuilds its WAL from the memtable. Reads keep
	// working: the memtable holds a superset of the suspect WAL.
	failErr error

	// compactMu serializes compactions on this shard (background and
	// explicit); it is always acquired before mu.
	compactMu sync.Mutex

	// bloom effectiveness counters (atomic): filtered = lookups a
	// filter proved absent, falsePos = lookups a filter passed but the
	// segment did not hold the key.
	bloomFiltered uint64
	bloomFalsePos uint64
}

// openShard recovers one shard directory: leftover temp files from a
// crash mid-write are removed, segments whose sequence interval another
// segment contains (an interrupted compaction's inputs) are dropped,
// the rest are ordered by recency, and the WAL replays into a fresh
// memtable with any torn tail truncated.
func openShard(st *Store, id int, dir string) (*shard, error) {
	fs := st.fs
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sh := &shard{st: st, id: id, dir: dir, mem: map[string][]byte{}}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cleaned := false
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("store: removing stale temp file: %w", err)
			}
			cleaned = true
		case isSegmentFile(name):
			seg, err := openSegment(fs, filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			sh.segs = append(sh.segs, seg)
		}
	}
	// Drop superseded segments: interval containment heals a crash
	// between a compaction output's rename and its inputs' deletion.
	live := sh.segs[:0]
	for _, s := range sh.segs {
		superseded := false
		for _, o := range sh.segs {
			if o != s && o.seqMin <= s.seqMin && s.seqMax <= o.seqMax {
				superseded = true
				break
			}
		}
		if superseded {
			s.close()
			if err := fs.Remove(s.path); err != nil {
				return nil, fmt.Errorf("store: removing superseded segment: %w", err)
			}
			cleaned = true
		} else {
			live = append(live, s)
		}
	}
	sh.segs = live
	if cleaned {
		if err := fs.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	sort.Slice(sh.segs, func(a, b int) bool {
		if sh.segs[a].seqMax != sh.segs[b].seqMax {
			return sh.segs[a].seqMax < sh.segs[b].seqMax
		}
		return sh.segs[a].seqMin < sh.segs[b].seqMin
	})
	sh.nextSeq = 1
	for _, s := range sh.segs {
		if s.seqMax >= sh.nextSeq {
			sh.nextSeq = s.seqMax + 1
		}
	}
	walPath := filepath.Join(dir, walName)
	if sh.walBytes, err = replayWAL(fs, walPath, sh.mem); err != nil {
		return nil, err
	}
	for k, v := range sh.mem {
		sh.memBytes += len(k) + len(v) + 16
	}
	if sh.wal, err = openWALAppend(fs, walPath); err != nil {
		return nil, err
	}
	return sh, nil
}

// fail marks the shard read-only; the first cause wins. Callers hold
// sh.mu.
func (sh *shard) fail(cause error) {
	if sh.failErr == nil {
		sh.failErr = cause
	}
}

func (sh *shard) failedErr() error {
	return fmt.Errorf("%w (shard %d failed: %v)", ErrReadOnly, sh.id, sh.failErr)
}

// putBatch appends the records as one frame — one Write — to the WAL
// and applies them to the memtable, flushing when the memtable exceeds
// the configured size. It reports whether a flush happened so the
// store can schedule background compaction outside the lock.
//
// Fault handling follows the acknowledgement invariant: a non-nil
// error means NONE of the batch took effect. A WAL append fault (maybe
// a torn partial frame on disk) fails the shard and returns an error —
// reopen truncates the torn tail, and a frame is replayed whole or not
// at all, so every key of the batch stays absent. A flush fault after
// a successful append degrades the whole store but returns nil: the
// batch itself is in WAL and memtable, so acknowledging it is honest.
func (sh *shard) putBatch(keys []string, vals [][]byte) (flushed bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false, errClosed
	}
	if sh.failErr != nil {
		return false, sh.failedErr()
	}
	sh.walFrame = AppendFrame(sh.walFrame[:0], keys, vals)
	if _, err := sh.wal.Write(sh.walFrame); err != nil {
		sh.fail(fmt.Errorf("wal append: %w", err))
		return false, fmt.Errorf("store: wal: %w", err)
	}
	sh.walBytes += int64(len(sh.walFrame))
	sh.walDirty = true
	// One copy of the batch's values, shared by its memtable entries.
	total := 0
	for _, val := range vals {
		total += len(val)
	}
	held := make([]byte, 0, total)
	for i, key := range keys {
		if old, ok := sh.mem[key]; ok {
			sh.memBytes -= len(key) + len(old) + 16
		}
		at := len(held)
		held = append(held, vals[i]...)
		sh.mem[key] = held[at:len(held):len(held)]
		sh.memBytes += len(key) + len(vals[i]) + 16
	}
	if sh.memBytes >= sh.st.opt.memtableBytes {
		if err := sh.flushLocked(); err != nil {
			// The batch succeeded (WAL + memtable); only the background
			// reorganization failed, and flushLocked already recorded
			// the degradation. Acknowledge the batch.
			return false, nil
		}
		return true, nil
	}
	return false, nil
}

// get returns the newest value for key: memtable first, then segments
// newest to oldest, each consulted only when its bloom filter admits
// the key.
func (sh *shard) get(key string) ([]byte, bool, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return nil, false, errClosed
	}
	if v, ok := sh.mem[key]; ok {
		return append([]byte(nil), v...), true, nil
	}
	h := hashKey(key)
	for i := len(sh.segs) - 1; i >= 0; i-- {
		s := sh.segs[i]
		if !s.filter.test(h) {
			atomic.AddUint64(&sh.bloomFiltered, 1)
			continue
		}
		v, ok, err := s.get(key)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return v, true, nil
		}
		atomic.AddUint64(&sh.bloomFalsePos, 1)
	}
	return nil, false, nil
}

// flushLocked writes the memtable to a new segment and resets the WAL.
// Callers hold sh.mu. Durability order: the segment reaches its final
// name (file and directory both fsynced) before the WAL shrinks, so a
// crash at any point leaves the data in at least one of the two.
//
// A fault while building the segment leaves memtable and WAL intact
// (the partial temp file is removed) and degrades the store to
// read-only. A fault truncating the WAL after the segment landed fails
// the shard: the data is safe in the segment, but the WAL handle can
// no longer be trusted for further appends.
func (sh *shard) flushLocked() error {
	if sh.failErr != nil {
		return sh.failedErr()
	}
	if len(sh.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(sh.mem))
	for k := range sh.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seq := sh.nextSeq
	src := &memSource{mem: sh.mem, keys: keys}
	if _, err := writeSegment(sh.dir, seq, seq, src, len(keys), &sh.st.opt); err != nil {
		sh.st.degrade(fmt.Errorf("shard %d flush: %w", sh.id, err))
		return err
	}
	seg, err := openSegment(sh.st.fs, filepath.Join(sh.dir, segName(seq, seq)))
	if err != nil {
		sh.st.degrade(fmt.Errorf("shard %d flush: %w", sh.id, err))
		return err
	}
	sh.nextSeq++
	sh.segs = append(sh.segs, seg)
	// The next memtable is sized for as many keys as the last one held.
	sh.mem = make(map[string][]byte, len(keys))
	sh.memBytes = 0
	if err := sh.wal.Truncate(0); err != nil {
		sh.fail(fmt.Errorf("wal truncate after flush: %w", err))
		return fmt.Errorf("store: wal: %w", err)
	}
	sh.walBytes = 0
	sh.walDirty = false
	return nil
}

type memSource struct {
	mem  map[string][]byte
	keys []string
	i    int
}

func (m *memSource) next() (string, []byte, bool, error) {
	if m.i >= len(m.keys) {
		return "", nil, false, nil
	}
	k := m.keys[m.i]
	m.i++
	return k, m.mem[k], true, nil
}

// sync fsyncs the WAL, making every buffered put durable. Clean shards
// (no appends since the last sync or flush) skip the fsync, so a
// store-wide Sync costs one fsync per dirty shard, not per shard. A
// failed fsync fails the shard — the pages the fsync was meant to
// persist may already be gone from the kernel, so walDirty must NOT
// clear and no later fsync may pretend to cover them.
func (sh *shard) sync() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return errClosed
	}
	if sh.failErr != nil {
		return sh.failedErr()
	}
	if !sh.walDirty {
		return nil
	}
	if err := sh.wal.Sync(); err != nil {
		sh.fail(fmt.Errorf("wal fsync: %w", err))
		return fmt.Errorf("store: wal: %w", err)
	}
	sh.walDirty = false
	return nil
}

// recoverLocked returns a failed shard to service. The memtable holds
// a superset of whatever the suspect WAL contains, so it is flushed to
// a fresh fsynced segment and the WAL is recreated empty through a new
// handle — nothing afterwards depends on a file a failed fsync may not
// have persisted. Callers hold sh.mu. No-op on healthy shards.
func (sh *shard) recoverLocked() error {
	if sh.closed {
		return errClosed
	}
	if sh.failErr == nil {
		return nil
	}
	if len(sh.mem) > 0 {
		keys := make([]string, 0, len(sh.mem))
		for k := range sh.mem {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		seq := sh.nextSeq
		src := &memSource{mem: sh.mem, keys: keys}
		if _, err := writeSegment(sh.dir, seq, seq, src, len(keys), &sh.st.opt); err != nil {
			return fmt.Errorf("store: recovering shard %d: %w", sh.id, err)
		}
		seg, err := openSegment(sh.st.fs, filepath.Join(sh.dir, segName(seq, seq)))
		if err != nil {
			return fmt.Errorf("store: recovering shard %d: %w", sh.id, err)
		}
		sh.nextSeq++
		sh.segs = append(sh.segs, seg)
		sh.mem = map[string][]byte{}
		sh.memBytes = 0
	}
	sh.wal.Close()
	wal, err := recreateWAL(sh.st.fs, filepath.Join(sh.dir, walName))
	if err != nil {
		// The old handle is closed; reopen in append mode so the shard
		// stays readable and a later Recover can retry.
		if reopened, rerr := openWALAppend(sh.st.fs, filepath.Join(sh.dir, walName)); rerr == nil {
			sh.wal = reopened
		}
		return fmt.Errorf("store: recovering shard %d: %w", sh.id, err)
	}
	sh.wal = wal
	sh.walBytes = 0
	sh.walDirty = false
	sh.failErr = nil
	return nil
}

// snapshot pins the shard's current state for iteration: a sorted copy
// of the memtable keys that have the prefix and a referenced view of
// the segment list. release must be called exactly once when iteration
// ends.
func (sh *shard) snapshot(prefix string) (memKeys []string, memVals [][]byte, segs []*segment) {
	sh.mu.Lock() // full lock: reference counts are mutated
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, nil, nil
	}
	for k := range sh.mem {
		if strings.HasPrefix(k, prefix) {
			memKeys = append(memKeys, k)
		}
	}
	sort.Strings(memKeys)
	memVals = make([][]byte, len(memKeys))
	for i, k := range memKeys {
		memVals[i] = sh.mem[k]
	}
	segs = append(segs, sh.segs...)
	for _, s := range segs {
		s.refs++
	}
	return memKeys, memVals, segs
}

// release drops iterator references; segments a compaction has since
// superseded are closed and unlinked once the last reference is gone.
func (sh *shard) release(segs []*segment) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, s := range segs {
		s.refs--
		if s.dead && s.refs == 0 {
			s.close()
			sh.st.fs.Remove(s.path)
		}
	}
}

// close flushes the memtable (so the next open replays no WAL) and
// closes every file.
func (sh *shard) close() error { return sh.closeSkippingFlush(false) }

// closeSkippingFlush closes the shard; when the store is degraded (or
// the shard itself failed) the final flush and fsync are skipped —
// every acknowledged write is already in WAL or segment, and writing
// through a handle a fault made untrustworthy could do harm.
func (sh *shard) closeSkippingFlush(degraded bool) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil
	}
	var err error
	if !degraded && sh.failErr == nil {
		err = sh.flushLocked()
		if serr := sh.wal.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := sh.wal.Close(); err == nil {
		err = cerr
	}
	for _, s := range sh.segs {
		s.close()
	}
	sh.closed = true
	return err
}
