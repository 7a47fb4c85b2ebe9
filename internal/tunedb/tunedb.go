// Package tunedb is the persistent tuning database: an embedded,
// concurrency-safe, on-disk store of tuning results keyed by (program
// fingerprint, machine signature, objective set, search-space hash).
// It turns the framework's in-memory evaluation cache and Pareto
// fronts into durable assets that outlive the process, so repeated or
// overlapping searches skip known configurations (the E metric counts
// only genuinely new evaluations), warm starts seed the initial
// population from stored fronts, and results tuned on one modeled
// machine transfer to the nearest-signature neighbor.
//
// Storage is the internal/store LSM engine under <dir>/store: records
// live in sharded write-ahead logs and immutable sorted segment files
// with per-segment bloom filters, sharded by program fingerprint so
// concurrent searches of different programs never contend, with
// size-tiered compaction dropping superseded records in the background.
// Opening is O(segment metadata), not O(data). A directory still in the
// v1 append-only JSONL journal format is refused by name: commit
// ca39811 is the last whose Open migrates one.
//
// Record namespaces inside the store, all in canonical key order:
//
//	k|<key>            → the structured Key (registry; ScanKeys scans it)
//	e|<key>|<cfg>      → one evaluated configuration's objectives
//	f|<key>            → the latest Pareto front for the key
//	j||<id>            → a tuning-service job's latest record (opaque bytes)
//
// The empty routing component of a job record (a program fingerprint in
// the other namespaces) keeps every one on one shard, the one Jobs
// reads. Merge leaves job records behind.
package tunedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"autotune/internal/chaos"
	"autotune/internal/machine"
	"autotune/internal/skeleton"
	"autotune/internal/store"
)

// Store key namespace tags.
const (
	nsKey   = "k|"
	nsEval  = "e|"
	nsFront = "f|"
	nsJob   = "j||"
)

// evalValue is the store-resident form of one evaluation: the key and
// config live in the store key, only the measurement in the value.
type evalValue struct {
	Config     []int64   `json:"config"`
	Objectives []float64 `json:"objectives"`
}

// FrontPoint is one stored Pareto point.
type FrontPoint struct {
	Config     []int64   `json:"config"`
	Objectives []float64 `json:"objectives"`
}

// FrontRecord is a finished Pareto front stored under its key together
// with the machine signature it was tuned on (kept structurally, not
// just as a key string, so the transfer path can compute signature
// distances) and the search's summary statistics.
type FrontRecord struct {
	Key            Key               `json:"key"`
	Machine        machine.Signature `json:"machine_sig"`
	ObjectiveNames []string          `json:"objective_names"`
	Points         []FrontPoint      `json:"points"`
	Evaluations    int               `json:"evaluations"`
	Iterations     int               `json:"iterations"`
}

// DB is an open tuning database. All methods are safe for concurrent
// use; writers on different programs land on different store shards
// and never contend. Beside the store it holds, in memory and within a
// fixed budget, the decoded evaluations of the keys it has warm-started
// from (see resident): a key's history is read from disk once per open
// database.
type DB struct {
	st  *store.Store
	res *resident

	// names holds what the database renders of every key it has written
	// under or kept resident, rendered once; see keyNames.
	namesMu sync.RWMutex
	names   map[Key]*keyNames
}

// keyNames is what the database renders of one key: its canonical
// string and the store prefix of its evaluations, which the resident
// histories, the locks and the store keys are named by, and whether the
// key's registry record is known to be stored. A key enters the table
// when it is written under or when a warm start keeps it resident; a
// read of any other key renders its strings for the one call, so reads
// of keys never stored do not grow the table.
type keyNames struct {
	ks         string
	evalPrefix string
	// registered: this open database has stored the key's registry
	// record or found it stored. The record is never deleted, so a key
	// acknowledged once needs no further read.
	registered atomic.Bool
}

// lookupNames returns the key's entry in the table, nil when it has
// none.
func (db *DB) lookupNames(key Key) *keyNames {
	db.namesMu.RLock()
	defer db.namesMu.RUnlock()
	return db.names[key]
}

// keyStrings returns the key's canonical string and evaluation prefix,
// the table's when it holds the key.
func (db *DB) keyStrings(key Key) (ks, evalPrefix string) {
	if n := db.lookupNames(key); n != nil {
		return n.ks, n.evalPrefix
	}
	return renderKeyStrings(key)
}

// renderKeyStrings renders the evaluation prefix, evalStoreKey(ks, ""),
// in one string and cuts ks = key.String() from it.
func renderKeyStrings(key Key) (ks, evalPrefix string) {
	evalPrefix = nsEval + key.Fingerprint + "|" + key.MachineSig + "|" + key.Objectives + "|" + key.SpaceHash + "|"
	return evalPrefix[len(nsEval) : len(evalPrefix)-1], evalPrefix
}

// keptNames returns the key's entry in the table, entering it first if
// it has none.
func (db *DB) keptNames(key Key) *keyNames {
	if n := db.lookupNames(key); n != nil {
		return n
	}
	ks, evalPrefix := renderKeyStrings(key)
	db.namesMu.Lock()
	defer db.namesMu.Unlock()
	n := db.names[key]
	if n == nil {
		n = &keyNames{ks: ks, evalPrefix: evalPrefix}
		db.names[key] = n
	}
	return n
}

// storeOptions is the engine configuration every tunedb database uses.
// Sharding hashes only the program-fingerprint component of a key, so
// every record of one program — across machines, objective sets and
// spaces — stays in one shard, and a range scan whose prefix names the
// program (one key's evaluations, a program's fronts across machines)
// is a single-shard scan.
func storeOptions() store.Options {
	return store.Options{
		Shards:  16,
		ShardBy: shardHash,
	}
}

// shardHash routes a namespaced store key ("e|<fingerprint>|..."), or a
// prefix of one, by its program fingerprint: the text between the first
// two separators. complete reports that both were found — the
// fingerprint is all there, and whatever follows cannot change the
// hash.
func shardHash(storeKey string) (hash uint32, complete bool) {
	rest := storeKey
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest, complete = rest[:i], true
	}
	h := fnv.New32a()
	h.Write([]byte(rest))
	return h.Sum32(), complete
}

func evalStoreKey(ks, cfgKey string) string { return nsEval + ks + "|" + cfgKey }
func frontStoreKey(ks string) string        { return nsFront + ks }
func keyStoreKey(ks string) string          { return nsKey + ks }

// storeDir is where the engine lives inside a database directory.
func storeDir(dir string) string { return filepath.Join(dir, "store") }

// Open opens (creating if necessary) the database in dir. A directory
// holding the journal.jsonl of the v1 engine and no store/ is an error
// that says so — never an empty database opened beside the data; once
// a store/ exists (the v1 database was migrated by a build up to commit
// ca39811) a leftover journal is ignored.
func Open(dir string) (*DB, error) { return OpenFS(dir, nil) }

// OpenFS opens the database over an explicit filesystem (the real OS
// when nil). Chaos tests inject a scripted chaos.Injector; production
// callers use Open.
func OpenFS(dir string, fsys chaos.FS) (*DB, error) {
	if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err == nil {
		if _, err := os.Stat(storeDir(dir)); os.IsNotExist(err) {
			return nil, fmt.Errorf("tunedb: %s is a v1 journal database (journal.jsonl, no store/), which this build does not read: commit ca39811 is the last that migrates it — open the directory once with a build of that commit", dir)
		}
	}
	opt := storeOptions()
	opt.FS = fsys
	st, err := store.Open(storeDir(dir), opt)
	if err != nil {
		return nil, fmt.Errorf("tunedb: %w", err)
	}
	return &DB{st: st, res: newResident(), names: map[Key]*keyNames{}}, nil
}

// Health reports the underlying store's degradation state: whether any
// write path has failed (the database serves reads but refuses writes)
// and why.
func (db *DB) Health() store.Health { return db.st.Health() }

// Recover attempts to return a degraded database to writable service
// once the underlying fault has cleared; see store.Recover. Nothing
// stays resident across it.
func (db *DB) Recover() error {
	db.res.dropAll()
	if err := db.st.Recover(); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

// IsReadOnly reports whether err means the database has degraded to
// read-only after an I/O fault (the write was refused, not lost in an
// unknown state). Callers that can proceed without persistence — a
// running search recording progress — may treat such errors as
// non-fatal and rely on Health for surfacing.
func IsReadOnly(err error) bool { return errors.Is(err, store.ErrReadOnly) }

// Fsck verifies the database's on-disk store offline — CRC frames,
// segment sort order and footers, bloom and index consistency — without
// opening it for writing. It works (by design) on databases too
// damaged for Open.
func Fsck(dir string) (store.FsckReport, error) { return store.Fsck(storeDir(dir)) }

// Close flushes and closes the engine. The DB must not be used after;
// Close is idempotent.
func (db *DB) Close() error {
	db.res.dropAll()
	if err := db.st.Close(); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

// PutEval stores one evaluated configuration under key: PutEvals of
// one record.
func (db *DB) PutEval(key Key, cfg skeleton.Config, objs []float64) error {
	return db.PutEvals(key, []skeleton.Config{cfg}, []string{cfg.Key()}, [][]float64{objs})
}

// writeScratch is what PutEvals builds a batch in: the store keys and
// values it hands the store, the buffer the values are encoded into and
// the records it enters into the history. None of it outlives the call
// — the store copies the values and keeps only the key strings (see
// store.PutBatch), and the history copies the records — so the scratch
// goes back to writeScratches for the next batch.
type writeScratch struct {
	keys []string
	vals [][]byte
	buf  []byte
	kept []keptEval
}

var writeScratches = sync.Pool{New: func() any { return new(writeScratch) }}

// release gives the scratch back, holding no pointer: a store key or a
// configuration key it kept would pin the memory it lies in.
func (s *writeScratch) release() {
	clear(s.keys[:cap(s.keys)])
	clear(s.vals[:cap(s.vals)])
	clear(s.kept[:cap(s.kept)])
	poison(s.buf[:cap(s.buf)], 0xff)
	s.keys, s.vals, s.buf, s.kept = s.keys[:0], s.vals[:0], s.buf[:0], s.kept[:0]
	writeScratches.Put(s)
}

// PutEvals stores a batch of evaluated configurations under key —
// objs[i] is the result of cfgs[i], nil for a known failure, and cks[i]
// is cfgs[i].Key(), as the evaluation cache hands it to its observers —
// as one store batch: one WAL frame however many records it holds, so
// the batch is stored whole or, on error, not at all. Re-storing a
// configuration already present with the same result is skipped, so
// repeated cold runs do not grow the database; what is present is read
// from the key's resident history when it has one — which holds all the
// key holds — and from the store otherwise. It is the only function
// that writes an evaluation, and it writes through: a batch the store
// acknowledged enters the resident history, copied, under the cks
// strings themselves; a batch it refused, for whatever reason, ends the
// key's residency. What it allocates is what the store and the history
// keep: the batch's store keys, and the copies.
func (db *DB) PutEvals(key Key, cfgs []skeleton.Config, cks []string, objs [][]float64) error {
	if len(cfgs) != len(objs) || len(cfgs) != len(cks) {
		return fmt.Errorf("tunedb: batch of %d configurations, %d keys and %d results", len(cfgs), len(cks), len(objs))
	}
	names := db.keptNames(key)
	ks, prefix := names.ks, names.evalPrefix
	defer db.res.lockKey(ks).Unlock()
	h := db.res.lookup(ks, false)
	s := writeScratches.Get().(*writeScratch)
	defer s.release()
	// The store keys are cut from one string built to its exact size:
	// the memtable keeps them, so a buffer grown by doubling would be
	// kept with its slack. The history takes the cks strings, never a
	// cut of this one, which would pin the whole batch's store keys.
	var sb strings.Builder
	size := len(prefix) * len(cks)
	for _, ck := range cks {
		size += len(ck)
	}
	sb.Grow(size)
	for _, ck := range cks {
		sb.WriteString(prefix)
		sb.WriteString(ck)
	}
	storeKeys := sb.String()
	// The values are encoded end to end into one buffer (a value of a
	// four-parameter, two-objective evaluation is some 70 bytes); if it
	// has to grow, the values cut from it so far keep the old one.
	buf := slices.Grow(s.buf, 96*len(cfgs))
	for i, cfg := range cfgs {
		at := len(buf)
		var err error
		if buf, err = appendEvalValue(buf, cfg, objs[i]); err != nil {
			return err
		}
		val := buf[at:len(buf):len(buf)]
		ck := cks[i]
		sk := storeKeys[:len(prefix)+len(ck)]
		storeKeys = storeKeys[len(sk):]
		var same bool
		if h != nil {
			// The history holds decoded values: equal objectives is what
			// sameEval comes down to for a value that decodes.
			at, ok := h.find(ck)
			if same = ok && equalObjs(h.objs[at], objs[i]); !same {
				s.kept = append(s.kept, keptEval{i: i, ck: ck, at: at, stored: ok})
			}
		} else if old, ok, err := db.st.Get(sk); err != nil {
			return fmt.Errorf("tunedb: %w", err)
		} else {
			same = ok && sameEval(old, val, objs[i])
		}
		if same {
			buf = buf[:at]
			continue
		}
		s.keys = append(s.keys, sk)
		s.vals = append(s.vals, val)
	}
	s.buf = buf
	if len(s.keys) == 0 {
		return nil
	}
	if err := db.putRegistered(key, names, s.keys, s.vals); err != nil {
		db.res.drop(ks)
		return err
	}
	if h != nil {
		db.res.grew(ks, h, h.add(s.kept, cfgs, objs))
	}
	return nil
}

// sameEval reports whether the stored value old already records the
// result objs, whose encoding is val. Equal bytes are the usual case;
// a value that differs in bytes may still hold equal objectives (-0
// against 0), so it is decoded before it is overwritten.
func sameEval(old, val []byte, objs []float64) bool {
	if bytes.Equal(old, val) {
		return true
	}
	_, stored, err := decodeEvalValue(old)
	return err == nil && equalObjs(stored, objs)
}

// appendEvalValue appends the store value of one evaluation, byte for
// byte what json.Marshal(evalValue{cfg, objs}) produces, without the
// reflection walk. NaN and infinities are refused as JSON refuses them.
func appendEvalValue(b []byte, cfg skeleton.Config, objs []float64) ([]byte, error) {
	b = append(b, `{"config":`...)
	b = store.AppendJSONInts(b, cfg)
	b = append(b, `,"objectives":`...)
	b, err := store.AppendJSONFloats(b, objs)
	if err != nil {
		return b, fmt.Errorf("tunedb: objective values: %w", err)
	}
	return append(b, '}'), nil
}

// decodeEvalValue reads a stored evaluation back: for the bytes
// appendEvalValue writes (and json.Marshal wrote before it) the strict
// mirror image of that encoder, for anything else — whitespace,
// reordered, repeated or unknown fields, whatever a database migrated
// from a v1 journal holds — json.Unmarshal, so that on every input the
// result and whether there is an error are json.Unmarshal's.
func decodeEvalValue(data []byte) (skeleton.Config, []float64, error) {
	var s evalSlabs
	return s.decode(data)
}

// evalSlabs is where a scan decodes its values: every configuration
// and objective vector is a capped cut of a slab of int64s or float64s,
// so a scan allocates per slab, not per record. A slab is only ever
// appended to; a full one is left to the cuts made from it and the
// next is twice its size, up to slabMax elements — as small as the
// first value needs, so a lone decode allocates what it decodes.
type evalSlabs struct {
	ints   []int64
	floats []float64
}

// slabMax bounds a slab at 32 KiB.
const slabMax = 4096

// decode is decodeEvalValue, cutting what parse accepts from the
// slabs.
func (s *evalSlabs) decode(data []byte) (skeleton.Config, []float64, error) {
	if cfg, objs, ok := s.parse(data); ok {
		return cfg, objs, nil
	}
	var v evalValue
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, nil, err
	}
	return v.Config, v.Objectives, nil
}

// parse is the strict decoder: it accepts exactly
//
//	{"config":[ints]|null,"objectives":[JSON numbers]|null}
//
// with nothing before, between or after; ok is false for every other
// input, including one json.Unmarshal would refuse too.
func (s *evalSlabs) parse(data []byte) (cfg skeleton.Config, objs []float64, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"config":`))
	if !ok {
		return nil, nil, false
	}
	body, rest, isNull, ok := cutArray(rest)
	if !ok {
		return nil, nil, false
	}
	if !isNull {
		ints := room(s.ints, bytes.Count(body, []byte{','})+1)
		at := len(ints)
		for len(body) > 0 {
			lit, more, integer := cutNumber(body)
			if !integer {
				return nil, nil, false
			}
			v, err := strconv.ParseInt(string(lit), 10, 64)
			if err != nil {
				return nil, nil, false
			}
			ints, body = append(ints, v), more
		}
		s.ints, cfg = ints, ints[at:len(ints):len(ints)]
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"objectives":`)); !ok {
		return nil, nil, false
	}
	body, rest, isNull, ok = cutArray(rest)
	if !ok || string(rest) != "}" {
		return nil, nil, false
	}
	if !isNull {
		floats := room(s.floats, bytes.Count(body, []byte{','})+1)
		at := len(floats)
		for len(body) > 0 {
			lit, more, _ := cutNumber(body)
			if lit == nil {
				return nil, nil, false
			}
			f, err := strconv.ParseFloat(string(lit), 64)
			if err != nil {
				return nil, nil, false
			}
			floats, body = append(floats, f), more
		}
		s.floats, objs = floats, floats[at:len(floats):len(floats)]
	}
	return cfg, objs, true
}

// room returns slab, or the slab that follows it when it has no room
// for n more elements.
func room[T int64 | float64](slab []T, n int) []T {
	if cap(slab)-len(slab) >= n {
		return slab
	}
	return make([]T, 0, max(n, min(2*cap(slab), slabMax)))
}

// cutArray cuts a leading null or [...] off b; body is what the
// brackets hold.
func cutArray(b []byte) (body, rest []byte, isNull, ok bool) {
	if rest, ok := bytes.CutPrefix(b, []byte("null")); ok {
		return nil, rest, true, true
	}
	if len(b) == 0 || b[0] != '[' {
		return nil, nil, false, false
	}
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return nil, nil, false, false
	}
	return b[1:end], b[end+1:], false, true
}

// cutNumber cuts the first element off the inside of an array: the JSON
// number literal body starts with and, when more follows, the comma
// that has to separate it from a further element. lit is nil when body
// does not start that way; integer reports a literal with neither
// fraction nor exponent.
func cutNumber(body []byte) (lit, more []byte, integer bool) {
	n, integer := jsonNumberLen(body)
	if n == 0 {
		return nil, nil, false
	}
	lit, more = body[:n], body[n:]
	if len(more) > 0 {
		if more[0] != ',' || len(more) == 1 {
			return nil, nil, false
		}
		more = more[1:]
	}
	return lit, more, integer
}

// jsonNumberLen measures the JSON number literal b starts with — 0 when
// it starts with none — and reports whether the literal is an integer:
// no fraction, no exponent. The grammar is JSON's, which is narrower
// than strconv's: no leading zeros or plus sign, digits on both sides
// of the point.
func jsonNumberLen(b []byte) (n int, integer bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return 0, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		end := digits(i + 1)
		if end == i+1 {
			return 0, false
		}
		i, integer = end, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		end := digits(j)
		if end == j {
			return 0, false
		}
		i, integer = end, false
	}
	return i, integer
}

// putRegistered stores the records — all under key, whose names are
// names — in one store batch, together with the registry record that
// makes key discoverable by ScanKeys the first time this open database
// writes under it.
func (db *DB) putRegistered(key Key, names *keyNames, keys []string, vals [][]byte) error {
	known := names.registered.Load()
	if !known {
		kk := keyStoreKey(names.ks)
		if _, ok, err := db.st.Get(kk); err != nil {
			return fmt.Errorf("tunedb: %w", err)
		} else if !ok {
			val, err := json.Marshal(key)
			if err != nil {
				return fmt.Errorf("tunedb: %w", err)
			}
			keys, vals = append(keys, kk), append(vals, val)
		}
	}
	if err := db.st.PutBatch(keys, vals); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	if !known {
		names.registered.Store(true)
	}
	return nil
}

// PutFront stores a finished Pareto front, superseding any previous
// front under the same key. Points are stored in canonical order
// (lexicographic by objective vector, then configuration) so exports
// are byte-stable. The write is made durable before PutFront returns.
func (db *DB) PutFront(rec FrontRecord) error {
	sortFrontPoints(rec.Points)
	names := db.keptNames(rec.Key)
	val, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	if err := db.putRegistered(rec.Key, names, []string{frontStoreKey(names.ks)}, [][]byte{val}); err != nil {
		return err
	}
	if err := db.st.Sync(); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

func sortFrontPoints(pts []FrontPoint) {
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

// Front returns the stored front for an exact key — a sharded,
// bloom-screened point lookup. A lookup that fails, and a stored front
// that does not decode, read as no front.
func (db *DB) Front(key Key) (FrontRecord, bool) {
	rec, ok, _ := db.front(key)
	return rec, ok
}

// front is Front for callers that must tell a failed read or a damaged
// front from an absent front.
func (db *DB) front(key Key) (FrontRecord, bool, error) {
	ks, _ := db.keyStrings(key)
	data, ok, err := db.st.Get(frontStoreKey(ks))
	if err != nil {
		return FrontRecord{}, false, fmt.Errorf("tunedb: %w", err)
	}
	if !ok {
		return FrontRecord{}, false, nil
	}
	rec, err := decodeFront(ks, data)
	return rec, err == nil, err
}

// decodeFront decodes the front stored under the key whose canonical
// string is ks. One that does not decode is an error naming the key.
func decodeFront(ks string, data []byte) (FrontRecord, error) {
	var rec FrontRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return FrontRecord{}, fmt.Errorf("tunedb: front %s: %w", ks, err)
	}
	return rec, nil
}

// PutJob stores rec as the record of the job id, superseding the one
// before it. The write is as durable as a journaled evaluation: Close
// (or the next Sync) makes it durable; an error means it is not stored.
func (db *DB) PutJob(id string, rec []byte) error {
	if err := db.st.Put(nsJob+id, rec); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

// Jobs calls fn with every stored job record in ID order. id is fn's
// to keep, a copy of its own, since a job's id is kept for the life of
// a server; rec is valid until fn returns: it lies in the chunk it was
// read in, which the scan reads into again (see store.Iterator.Value).
// An error from fn ends the scan and is returned, as is a read error.
func (db *DB) Jobs(fn func(id string, rec []byte) error) error {
	it := db.st.Iter(nsJob)
	defer it.Close()
	for it.Next() {
		if err := fn(strings.Clone(strings.TrimPrefix(it.Key(), nsJob)), it.Value()); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

// GetEval point-looks one stored evaluation up. ok distinguishes "not
// stored" from a stored known-failure (ok with nil objectives). A
// resident key answers from its history, hit or miss, without a read: its
// history is all the key holds. objs is the caller's.
func (db *DB) GetEval(key Key, cfg skeleton.Config) (objs []float64, ok bool) {
	ks, prefix := db.keyStrings(key)
	ck := cfg.Key()
	mu := db.res.lockKey(ks)
	if h := db.res.lookup(ks, false); h != nil {
		at, ok := h.find(ck)
		if ok {
			objs = h.objs[at]
		}
		mu.Unlock()
		return slices.Clone(objs), ok
	}
	mu.Unlock()
	data, ok, err := db.st.Get(prefix + ck)
	if err != nil || !ok {
		return nil, false
	}
	if _, objs, err = decodeEvalValue(data); err != nil {
		return nil, false
	}
	return objs, true
}

// EvalCount returns the number of stored evaluations for a key.
func (db *DB) EvalCount(key Key) (int, error) {
	n := 0
	_, prefix := db.keyStrings(key)
	it := db.st.Iter(prefix)
	defer it.Close()
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		return 0, fmt.Errorf("tunedb: %w", err)
	}
	return n, nil
}

// ScanKeys range-scans the key registry: every stored key whose
// canonical string starts with prefix, in canonical order. A program
// fingerprint prefix selects that program's results across every
// machine, objective set and space — the cross-machine query the
// portfolio work builds on.
func (db *DB) ScanKeys(prefix string) ([]Key, error) {
	it := db.st.Iter(nsKey + prefix)
	defer it.Close()
	var out []Key
	for it.Next() {
		var k Key
		if err := json.Unmarshal(it.Value(), &k); err != nil {
			return nil, fmt.Errorf("tunedb: key registry entry %q: %w", it.Key(), err)
		}
		out = append(out, k)
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("tunedb: %w", err)
	}
	return out, nil
}

// ScanEvals streams every stored evaluation for keys matching the
// canonical-string prefix, in canonical order, invoking fn with the
// owning key string and the evaluation. A prefix that holds the program
// fingerprint whole — any full key does — is read from the one shard
// that owns the program. Values are decoded by decodeEvalValue, the
// counterpart of the encoder PutEvals writes them with; cfg and objs are
// fn's to keep. keyStr is valid until fn returns: it lies in the chunk
// its record was read in, which the scan reads into again (see
// store.Iterator.Key), so clone one that is kept longer. Iteration
// stops early when fn returns false; an error means the scan was cut
// short by an unreadable or undecodable record, and what fn has seen is
// a proper part of what is stored.
func (db *DB) ScanEvals(prefix string, fn func(keyStr string, cfg skeleton.Config, objs []float64) bool) error {
	return db.scanEvals(nsEval+prefix, func(sk string, cfg skeleton.Config, objs []float64) bool {
		ks := strings.TrimPrefix(sk, nsEval)
		if i := strings.LastIndexByte(ks, '|'); i >= 0 {
			ks = ks[:i]
		}
		return fn(ks, cfg, objs)
	})
}

// scanEvals is ScanEvals over a store-key prefix, fn being told the
// store key each evaluation is filed under.
func (db *DB) scanEvals(storePrefix string, fn func(storeKey string, cfg skeleton.Config, objs []float64) bool) error {
	it := db.st.Iter(storePrefix)
	defer it.Close()
	var slabs evalSlabs
	for it.Next() {
		cfg, objs, err := slabs.decode(it.Value())
		if err != nil {
			return fmt.Errorf("tunedb: eval entry %q: %w", it.Key(), err)
		}
		if !fn(it.Key(), cfg, objs) {
			return nil
		}
	}
	if err := it.Err(); err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	return nil
}

// Stats reports the storage engine's physical state (per-shard segment
// counts, live/dead record ratios, bloom filter effectiveness).
func (db *DB) Stats() (store.Stats, error) {
	s, err := db.st.Stats()
	if err != nil {
		return store.Stats{}, fmt.Errorf("tunedb: %w", err)
	}
	return s, nil
}

// Compact flushes memtables and merges every shard's segments down to
// one, dropping superseded eval/front records. Segment renames are
// followed by directory fsyncs, so a crash immediately after compaction
// cannot resurrect pre-compaction state.
func (db *DB) Compact() error {
	if err := db.st.Compact(); err != nil {
		return fmt.Errorf("tunedb: compact: %w", err)
	}
	return nil
}

// Merge folds every record of the database at dir into this one
// (cross-machine transfer: carry a database over from another host and
// merge it). It returns the number of evaluation and front records
// adopted. Records already present locally are kept: an incoming front
// only lands when no local front exists under the same key. A record
// Merge cannot read, local or incoming, fails it. The adopted records
// are made durable before Merge returns.
func (db *DB) Merge(dir string) (evals, fronts int, err error) {
	other, err := Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer other.Close()

	byKS := map[string]Key{}
	otherKeys, err := other.ScanKeys("")
	if err != nil {
		return 0, 0, err
	}
	for _, k := range otherKeys {
		byKS[k.String()] = k
	}

	mergeErr := other.ScanEvals("", func(ks string, cfg skeleton.Config, objs []float64) bool {
		key, ok := byKS[ks]
		if !ok {
			return true // unregistered record: skip
		}
		var exists bool
		if _, exists, err = db.st.Get(evalStoreKey(ks, cfg.Key())); err != nil {
			err = fmt.Errorf("tunedb: %w", err)
			return false
		}
		if exists {
			return true
		}
		if err = db.PutEval(key, cfg, objs); err != nil {
			return false
		}
		evals++
		return true
	})
	if err == nil {
		err = mergeErr
	}
	if err != nil {
		return evals, fronts, err
	}

	for _, k := range otherKeys {
		rec, ok, err := other.front(k)
		if err != nil {
			return evals, fronts, err
		}
		if !ok {
			continue
		}
		_, exists, err := db.front(k)
		if err != nil {
			return evals, fronts, err
		}
		if exists {
			continue
		}
		if err := db.PutFront(rec); err != nil {
			return evals, fronts, err
		}
		fronts++
	}
	if err := db.st.Sync(); err != nil {
		return evals, fronts, fmt.Errorf("tunedb: %w", err)
	}
	return evals, fronts, nil
}
