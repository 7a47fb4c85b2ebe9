package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"autotune/internal/chaos"
)

var errClosed = fmt.Errorf("store: store is closed")

// ErrReadOnly marks writes rejected because the store (or the target
// shard) has degraded to read-only after an I/O failure. Match with
// errors.Is; the wrapped message names the original fault. A degraded
// store keeps serving reads and can be returned to service by Recover
// (or by a clean reopen) once the underlying fault is gone.
var ErrReadOnly = errors.New("store: read-only")

// Options tunes an open store. The zero value gets sensible defaults.
type Options struct {
	// Shards is the number of independent shards (default 16). The
	// count is fixed at creation and persisted in meta.json; reopening
	// ignores a different value.
	Shards int
	// ShardBy routes keys and key prefixes alike. It maps a string to
	// the shard-selection hash of its routing component and reports
	// whether the string already holds that component whole: complete
	// promises that every string this one is a prefix of hashes the
	// same, so Iter scans one shard for such a prefix and every shard
	// otherwise. The default hashes the whole key and is never
	// complete. Callers with structured keys (tunedb) hash only the
	// program-fingerprint component, so one program's records stay in
	// one shard. The same function must be supplied on every open.
	ShardBy func(s string) (hash uint32, complete bool)
	// NoBackgroundCompaction disables the automatic post-flush merge;
	// Compact still works. Benchmarks and deterministic tests use it.
	NoBackgroundCompaction bool
	// FS is the filesystem the store runs on (default the real OS).
	// Chaos tests inject a scripted chaos.Injector here; production
	// never sets it.
	FS chaos.FS

	// The fields below are test seams: every database runs at their
	// defaults, and the store's own tests shrink them to stage flushes,
	// lookups and merges at small sizes.

	// memtableBytes flushes a shard's memtable to a segment once its
	// in-memory footprint exceeds this many bytes (default 1 MiB).
	memtableBytes int
	// indexInterval is the sparse-index stride in records (default 32):
	// a point lookup scans at most this many frames.
	indexInterval int
	// compactFanin is the number of contiguous same-tier segments that
	// triggers a background merge (default 4).
	compactFanin int
	// compactGate, when set, is called at named stages of a compaction
	// so crash and concurrency scenarios can be staged.
	compactGate func(stage string)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.ShardBy == nil {
		o.ShardBy = func(key string) (uint32, bool) {
			h := fnv.New32a()
			h.Write([]byte(key))
			return h.Sum32(), false
		}
	}
	if o.memtableBytes <= 0 {
		o.memtableBytes = 1 << 20
	}
	if o.indexInterval <= 0 {
		o.indexInterval = 32
	}
	if o.compactFanin < 2 {
		o.compactFanin = 4
	}
	if o.FS == nil {
		o.FS = chaos.OS{}
	}
	return o
}

// meta is the store's persisted identity: schema version and shard
// count, written once at creation.
type meta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const metaName = "meta.json"

// Store is an open storage engine rooted at one directory.
type Store struct {
	dir    string
	opt    Options
	fs     chaos.FS
	shards []*shard

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup

	// degradedErr, when set, puts the whole store in read-only mode:
	// an I/O failure during a flush or compaction means newly written
	// segments cannot be trusted to land, so writes are refused until
	// Recover clears the fault. Reads keep working throughout.
	degradedMu  sync.Mutex
	degradedErr error

	compactErrMu sync.Mutex
	compactErr   error
}

// Open opens (creating if necessary) the store at dir.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	metaPath := filepath.Join(dir, metaName)
	if data, err := fs.ReadFile(metaPath); err == nil {
		var m meta
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", metaName, err)
		}
		if m.Version != 1 {
			return nil, fmt.Errorf("store: unsupported store version %d", m.Version)
		}
		if m.Shards < 1 {
			return nil, fmt.Errorf("store: %s names %d shards", metaName, m.Shards)
		}
		opt.Shards = m.Shards
	} else if errors.Is(err, os.ErrNotExist) {
		data, err := json.Marshal(meta{Version: 1, Shards: opt.Shards})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		tmp := metaPath + tmpSuffix
		if err := fs.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := fs.Rename(tmp, metaPath); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := fs.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{dir: dir, opt: opt, fs: fs}
	for i := 0; i < opt.Shards; i++ {
		sh, err := openShard(st, i, filepath.Join(dir, fmt.Sprintf("shard-%02d", i)))
		if err != nil {
			for _, prev := range st.shards {
				prev.close()
			}
			return nil, err
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// route applies Options.ShardBy, the one routing function, to a key or
// a key prefix: the shard its routing component selects, and whether
// the string holds that component whole.
func (st *Store) route(s string) (sh *shard, complete bool) {
	h, complete := st.opt.ShardBy(s)
	return st.shards[int(h)%len(st.shards)], complete
}

func (st *Store) shardFor(key string) *shard {
	sh, _ := st.route(key)
	return sh
}

func (st *Store) gate(stage string) {
	if st.opt.compactGate != nil {
		st.opt.compactGate(stage)
	}
}

// degrade puts the whole store in read-only mode; the first cause
// wins. It is called on flush and compaction failures, where a partial
// segment may have been cleaned up but the shared invariant — every
// acknowledged write is in WAL or segment — still holds, so serving
// reads stays safe while writes must stop.
func (st *Store) degrade(cause error) {
	st.degradedMu.Lock()
	if st.degradedErr == nil {
		st.degradedErr = cause
	}
	st.degradedMu.Unlock()
}

// writable returns nil when store-level writes are admitted.
func (st *Store) writable() error {
	st.degradedMu.Lock()
	defer st.degradedMu.Unlock()
	if st.degradedErr != nil {
		return fmt.Errorf("%w (degraded: %v)", ErrReadOnly, st.degradedErr)
	}
	return nil
}

func (st *Store) noteCompactErr(err error) {
	st.compactErrMu.Lock()
	if st.compactErr == nil {
		st.compactErr = err
	}
	st.compactErrMu.Unlock()
}

// takeCompactErr returns (and clears) the first background-compaction
// error since the last call.
func (st *Store) takeCompactErr() error {
	st.compactErrMu.Lock()
	defer st.compactErrMu.Unlock()
	err := st.compactErr
	st.compactErr = nil
	return err
}

// Put stores value under key, superseding any previous value. The
// write is buffered in the OS (see Sync for durability). An error
// means the write did NOT take effect: the key is not stored and will
// not reappear on reopen. Writes that fail at the disk degrade the
// owning shard (WAL faults) or the whole store (flush faults) to
// read-only; see Health and Recover. Put is PutBatch of one record, and
// keeps what PutBatch keeps.
func (st *Store) Put(key string, value []byte) error {
	return st.PutBatch([]string{key}, [][]byte{value})
}

// PutBatch stores values[i] under keys[i] as one unit: one lock, one
// WAL frame and one write on the shard that owns the keys. Put's
// contract holds for the batch as a whole — an error means none of it
// took effect and none of it reappears on reopen, nil means all of it
// is stored — and a crash before Sync loses the batch whole, never
// part of it. The keys must share one shard (see Options.ShardBy): a
// batch across shards could not be made all-or-nothing and is refused
// before anything is written. A later record supersedes an earlier
// one under the same key; an empty batch is a no-op.
//
// The store copies the values and keeps the key strings, but neither
// slice: once PutBatch returns, the caller may reuse keys, values and
// the bytes the values were cut from.
func (st *Store) PutBatch(keys []string, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("store: batch of %d keys and %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	if err := st.writable(); err != nil {
		return err
	}
	sh := st.shardFor(keys[0])
	for _, key := range keys[1:] {
		if other := st.shardFor(key); other != sh {
			return fmt.Errorf("store: batch spans shards %d and %d", sh.id, other.id)
		}
	}
	if n := frameSize(keys, values) - frameHeader; n > maxFrame {
		return fmt.Errorf("store: batch of %d bytes exceeds the %d-byte frame limit", n, maxFrame)
	}
	flushed, err := sh.putBatch(keys, values)
	if err != nil {
		return err
	}
	if flushed && !st.opt.NoBackgroundCompaction {
		st.scheduleCompact(sh)
	}
	return nil
}

func (st *Store) scheduleCompact(sh *shard) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		sh.maybeCompact()
	}()
}

// Get returns the newest value stored under key, a copy of its own:
// the slice is owned by the caller, and keeping it keeps nothing else
// alive. Reads keep working on degraded (read-only) stores and failed
// shards.
func (st *Store) Get(key string) ([]byte, bool, error) {
	return st.shardFor(key).get(key)
}

// Iter returns an iterator over every key with the given prefix (the
// whole store for ""), in canonical bytewise key order. It visits only
// the shards that can hold such a key — one, when Options.ShardBy
// reports the prefix complete, every shard otherwise — and within a
// shard only the memtable entries with the prefix and the stretch of
// each segment its sparse index cannot rule out. The iterator sees a
// point-in-time snapshot.
func (st *Store) Iter(prefix string) *Iterator {
	shards := st.shards
	if sh, complete := st.route(prefix); complete {
		shards = []*shard{sh}
	}
	var streams []stream
	pins := make([][]*segment, len(shards))
	for i, sh := range shards {
		memKeys, memVals, segs := sh.snapshot(prefix)
		pins[i] = segs
		for _, s := range segs {
			streams = append(streams, s.iter(prefix))
		}
		streams = append(streams, &memStream{keys: memKeys, vals: memVals})
	}
	release := func() {
		for i, sh := range shards {
			sh.release(pins[i])
		}
	}
	return newMergedIterator(streams, prefix, release)
}

// Sync makes every completed Put durable (fsyncs each shard WAL). A
// failed fsync marks the shard failed/read-only: the kernel may have
// dropped the dirty pages, so retrying the fsync as if it could still
// persist them would silently lose data (the fsyncgate failure mode).
func (st *Store) Sync() error {
	if err := st.writable(); err != nil {
		return err
	}
	for _, sh := range st.shards {
		if err := sh.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes every shard's memtable to a segment.
func (st *Store) Flush() error {
	st.mu.Lock()
	closed := st.closed
	st.mu.Unlock()
	if closed {
		return errClosed
	}
	if err := st.writable(); err != nil {
		return err
	}
	for _, sh := range st.shards {
		sh.mu.Lock()
		err := sh.flushLocked()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Compact flushes memtables and merges every shard's segments down to
// one, dropping superseded records. Renames are followed by directory
// fsyncs, so a crash immediately after compaction cannot resurrect
// pre-compaction state.
func (st *Store) Compact() error {
	if err := st.Flush(); err != nil {
		return err
	}
	for _, sh := range st.shards {
		if _, err := sh.compactRun(true); err != nil {
			st.degrade(err)
			return err
		}
	}
	return st.takeCompactErr()
}

// Health describes the store's degradation state.
type Health struct {
	// ReadOnly reports whether any write path has failed: the store
	// serves reads but refuses (some or all) writes until Recover or a
	// clean reopen.
	ReadOnly bool `json:"read_only"`
	// Reason is the first fault that caused the degradation.
	Reason string `json:"reason,omitempty"`
	// FailedShards lists shards whose WAL hit an append or fsync
	// fault; writes hashing to them are refused.
	FailedShards []int `json:"failed_shards,omitempty"`
}

// Health reports whether the store is fully writable, degraded
// store-wide (flush/compaction fault) or degraded on specific shards
// (WAL faults). Reads work in every state.
func (st *Store) Health() Health {
	var h Health
	st.degradedMu.Lock()
	if st.degradedErr != nil {
		h.ReadOnly = true
		h.Reason = st.degradedErr.Error()
	}
	st.degradedMu.Unlock()
	for _, sh := range st.shards {
		sh.mu.RLock()
		failed := sh.failErr
		sh.mu.RUnlock()
		if failed != nil {
			h.ReadOnly = true
			h.FailedShards = append(h.FailedShards, sh.id)
			if h.Reason == "" {
				h.Reason = failed.Error()
			}
		}
	}
	return h
}

// Recover attempts to return a degraded store to writable service once
// the underlying fault (a full disk, a flaky device) has cleared. For
// every failed shard the memtable — which holds a superset of the
// suspect WAL's records — is flushed to a fresh fsynced segment and
// the WAL is recreated empty, so no acknowledged write depends on a
// file a failed fsync may not have persisted. Store-level degradation
// then clears and every memtable is flushed to prove the write path
// works. On error the store stays (or returns to) read-only; Recover
// may be retried.
func (st *Store) Recover() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return errClosed
	}
	st.mu.Unlock()
	for _, sh := range st.shards {
		sh.mu.Lock()
		err := sh.recoverLocked()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	st.degradedMu.Lock()
	st.degradedErr = nil
	st.degradedMu.Unlock()
	return st.Flush()
}

// Close waits for background compaction, flushes memtables and closes
// every file. The store must not be used afterwards. Degraded stores
// and failed shards skip the flush — their WAL and segments already
// hold every acknowledged write — so Close never writes through a
// handle a fault made untrustworthy.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	st.mu.Unlock()
	st.wg.Wait()
	var err error
	degraded := st.writable() != nil
	for _, sh := range st.shards {
		if cerr := sh.closeSkippingFlush(degraded); err == nil {
			err = cerr
		}
	}
	if cerr := st.takeCompactErr(); err == nil {
		err = cerr
	}
	return err
}
