package tunedb

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"

	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// residentBudget is how many evaluation records an open database keeps
// resident, over all its keys. A resident record of a four-parameter,
// two-objective evaluation costs some 130 bytes as scanned and 150 once
// batches have been written through and merged (measured on 10^5 and
// 2x10^5 records of one key: the decoded configuration and objectives,
// their slice headers, the configuration key). A scan allocates the
// history's slices once, at its length with an eighth for room, and so
// does settle, so at the worst — every slice just grown by append, a
// quarter at a time — a record costs some 160 bytes: the budget bounds
// the histories at about 70 MiB, 80 MiB at the worst, and holds the
// 10^5 records of the tunedb-mixed workload five times. A scan that
// grew the slices by doubling could leave them twice their length,
// some 200 bytes a record.
const residentBudget = 1 << 19

// keyLocks is the number of locks the keys of a database share.
const keyLocks = 64

// resident is what an open database remembers of the evaluations its
// keys hold: per key a history, which at every moment either equals
// what a scan of the store under that key would decode — the same
// records in the same order — or is absent. A key becomes resident in
// one way, a Warm whose scan completed; PutEvals, the one function that
// writes an evaluation, writes the batch the store acknowledged through
// to it; and it is dropped, never repaired, whenever the store refuses
// a write under the key and when the database recovers or closes. Key
// components hold no '|' (every constructor in the module sees to it),
// so the records under a key's store prefix are that key's alone.
//
// Locking: a key's lock (keyMu, picked by the key's hash; two keys may
// share one) is held by PutEvals from before it asks whether the key is
// resident until the batch is in the store and in the history, by Warm
// while it scans the key and admits what it read or takes the resident
// slices, and by GetEval while it looks a record up. So no scan of a key
// overlaps a write to it, and a history is only ever touched under its
// key's lock. mu guards the table of histories and the accounting
// below; it is taken inside a key's lock, never around one, and never
// held across a call into the store. An operation holds one key's lock
// at most. Warm hands the resident slices to the evaluation cache, which
// reads them in place for its whole life (its primed layer), so what
// has been handed out is never written again. Records are appended
// behind it, past the length handed out, and two mechanisms keep the
// promise: settle merges into fresh slices, and add copies the sorted
// stretch before it stores a changed result into it.
type resident struct {
	seed  maphash.Seed
	keyMu [keyLocks]sync.Mutex

	mu      sync.Mutex
	keys    map[string]*history
	records int // the sum of every resident history's counted
	budget  int
	clock   uint64
	// Warm starts served from a resident history and from a scan.
	fromResident, fromScan uint64
}

// history is one key's resident evaluations: parallel slices, keys[i]
// being the Config.Key() the store files record i under. The first
// sorted records are in store-key order, which makes keys their index;
// those behind them arrived through PutEvals since the last warm start,
// which merges them in, and are indexed by tail.
type history struct {
	keys   []string
	cfgs   []skeleton.Config
	objs   [][]float64
	sorted int
	tail   map[string]int // keys[i] → i, for i >= sorted

	// Guarded by resident.mu: the records the budget charges this
	// history for, and when it was last warmed from.
	counted int
	warmed  uint64
}

func newResident() *resident {
	return &resident{seed: maphash.MakeSeed(), keys: map[string]*history{}, budget: residentBudget}
}

// lockKey takes the lock of the key whose canonical string is ks.
func (r *resident) lockKey(ks string) *sync.Mutex {
	mu := &r.keyMu[maphash.String(r.seed, ks)%keyLocks]
	mu.Lock()
	return mu
}

// lookup returns the key's resident history, nil when it has none.
// warming counts the warm start it is about to serve and makes the key
// the last one to be evicted.
func (r *resident) lookup(ks string, warming bool) *history {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.keys[ks]
	if h != nil && warming {
		r.fromResident++
		r.clock++
		h.warmed = r.clock
	}
	return h
}

// admit makes h, just scanned, the resident history of the key, and
// reports whether it did: one larger than the whole budget is not kept.
func (r *resident) admit(ks string, h *history) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fromScan++
	if len(h.keys) > r.budget {
		return false
	}
	r.clock++
	h.warmed = r.clock
	r.keys[ks] = h
	r.charge(h, len(h.keys))
	return true
}

// grew charges h, if it still is the key's history, for added records.
func (r *resident) grew(ks string, h *history, added int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.keys[ks] == h {
		r.charge(h, added)
	}
}

// charge books n more records to h and evicts whole keys, the least
// recently warmed first, until the budget holds. Callers hold r.mu.
func (r *resident) charge(h *history, n int) {
	h.counted += n
	r.records += n
	for r.records > r.budget && len(r.keys) > 0 {
		var oldest string
		for ks, other := range r.keys {
			if oldest == "" || other.warmed < r.keys[oldest].warmed {
				oldest = ks
			}
		}
		r.dropLocked(oldest)
	}
}

// drop forgets the key's history.
func (r *resident) drop(ks string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropLocked(ks)
}

func (r *resident) dropLocked(ks string) {
	if h := r.keys[ks]; h != nil {
		r.records -= h.counted
		delete(r.keys, ks)
	}
}

// dropAll forgets every history.
func (r *resident) dropAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.keys)
	r.records = 0
}

// Residency reports how many evaluation records the open database holds
// resident and how many warm starts it has served from a resident
// history and from a scan of the store.
func (db *DB) Residency() (records int, fromResident, fromScan uint64) {
	r := db.res
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records, r.fromResident, r.fromScan
}

// scanScratch is where scanHistory gathers a scan before it knows how
// long it is: the decoded records and, end to end, their configuration
// keys with where each ends. The history is then allocated once, at its
// length, and the scratch goes back to scanScratches for the next scan.
type scanScratch struct {
	cfgs     []skeleton.Config
	objs     [][]float64
	ends     []int
	suffixes []byte
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

// release gives the scratch back, holding no pointer: a configuration
// or objective vector it kept would pin the slab it was decoded into.
func (s *scanScratch) release() {
	clear(s.cfgs[:cap(s.cfgs)])
	clear(s.objs[:cap(s.objs)])
	poison(s.ends[:cap(s.ends)], -1)
	poison(s.suffixes[:cap(s.suffixes)], 0xff)
	s.cfgs, s.objs, s.ends, s.suffixes = s.cfgs[:0], s.objs[:0], s.ends[:0], s.suffixes[:0]
	scanScratches.Put(s)
}

// scanHistory reads the evaluations filed under prefix, the key's
// evaluation prefix, out of the store in one single-shard scan, the
// slices as they were decoded. The history's slices are allocated once
// the scan is over, at its length and with the room settle leaves for
// the batches that follow a warm start.
func (db *DB) scanHistory(prefix string) (*history, error) {
	s := scanScratches.Get().(*scanScratch)
	defer s.release()
	// The configuration keys — what is left of the store keys behind
	// the prefix, ten bytes of a hundred — are gathered end to end and
	// cut from one string when the scan is over.
	err := db.scanEvals(prefix, func(sk string, cfg skeleton.Config, o []float64) bool {
		s.cfgs, s.objs = append(s.cfgs, cfg), append(s.objs, o)
		s.suffixes = append(s.suffixes, sk[len(prefix):]...)
		s.ends = append(s.ends, len(s.suffixes))
		return true
	})
	if err != nil {
		return nil, err
	}
	n := len(s.cfgs)
	room := historyRoom(n)
	h := &history{
		keys:   make([]string, n, room),
		cfgs:   append(make([]skeleton.Config, 0, room), s.cfgs...),
		objs:   append(make([][]float64, 0, room), s.objs...),
		sorted: n,
	}
	all, from := string(s.suffixes), 0
	for i, end := range s.ends {
		h.keys[i], from = all[from:end], end
	}
	return h, nil
}

// historyRoom is the capacity a history of n records is allocated with:
// room for the batches that follow a warm start, so that appending them
// does not copy the history a second time.
func historyRoom(n int) int { return n + n/8 + 64 }

// find returns where the record filed under ck is, if the key holds
// one.
func (h *history) find(ck string) (at int, ok bool) {
	if at, ok = slices.BinarySearch(h.keys[:h.sorted], ck); !ok {
		at, ok = h.tail[ck]
	}
	return at, ok
}

// settle merges the records appended since the last warm start into
// store-key order: the short tail is sorted and merged with the sorted
// stretch in one pass, into fresh slices: a cache an earlier warm start
// handed the old ones reads them for its whole life (see resident).
func (h *history) settle() {
	n := len(h.keys)
	if h.sorted == n {
		return
	}
	tail := make([]int, 0, n-h.sorted)
	for i := h.sorted; i < n; i++ {
		tail = append(tail, i)
	}
	slices.SortFunc(tail, func(a, b int) int { return strings.Compare(h.keys[a], h.keys[b]) })
	room := historyRoom(n)
	keys, cfgs, objs := make([]string, 0, room), make([]skeleton.Config, 0, room), make([][]float64, 0, room)
	from := 0
	move := func(to int) {
		keys = append(keys, h.keys[from:to]...)
		cfgs = append(cfgs, h.cfgs[from:to]...)
		objs = append(objs, h.objs[from:to]...)
		from = to
	}
	for _, t := range tail {
		before, _ := slices.BinarySearch(h.keys[from:h.sorted], h.keys[t])
		move(from + before)
		keys, cfgs, objs = append(keys, h.keys[t]), append(cfgs, h.cfgs[t]), append(objs, h.objs[t])
	}
	move(h.sorted)
	h.keys, h.cfgs, h.objs, h.sorted = keys, cfgs, objs, n
	clear(h.tail)
}

// keptEval is one record of a batch on its way to the store and, once
// the store has it, to the history: record i of the batch, filed under
// ck, which PutEvals found stored at at or not stored.
type keptEval struct {
	i      int
	ck     string
	at     int
	stored bool
}

// add enters the records of a batch the store has acknowledged and
// returns how many configurations are new. The records are copied, a
// nil slice staying nil and an empty one empty, as decoding the stored
// value gives them back. A configuration already there takes the new
// result, so the later of two records of one batch wins as it does in
// the store.
func (h *history) add(kept []keptEval, cfgs []skeleton.Config, objs [][]float64) (added int) {
	var nInts, nFloats int
	for _, k := range kept {
		nInts, nFloats = nInts+len(cfgs[k.i]), nFloats+len(objs[k.i])
	}
	ints, floats := make([]int64, 0, nInts), make([]float64, 0, nFloats)
	copied := false
	for _, k := range kept {
		cfg, o := cfgs[k.i], objs[k.i]
		if cfg != nil {
			at := len(ints)
			ints = append(ints, cfg...)
			cfg = ints[at:len(ints):len(ints)]
		}
		if o != nil {
			at := len(floats)
			floats = append(floats, o...)
			o = floats[at:len(floats):len(floats)]
		}
		at, stored := k.at, k.stored
		if !stored {
			// Not there when the batch was checked: there now only if
			// the batch holds the configuration twice.
			at, stored = h.tail[k.ck]
		}
		if !stored {
			if h.tail == nil {
				h.tail = map[string]int{}
			}
			h.tail[k.ck] = len(h.keys)
			h.keys, h.cfgs, h.objs = append(h.keys, k.ck), append(h.cfgs, cfg), append(h.objs, o)
			added++
			continue
		}
		if at < h.sorted && !copied {
			// A changed result, which a deterministic evaluator never
			// produces, may cost a copy, one a batch: a cache a warm
			// start handed the sorted stretch reads it for its whole
			// life (see resident).
			h.cfgs, h.objs, copied = slices.Clone(h.cfgs), slices.Clone(h.objs), true
		}
		h.cfgs[at], h.objs[at] = cfg, o
	}
	return added
}

// Warm primes the shared evaluation cache with every stored evaluation
// for the exact key — including known failures — so repeated or
// overlapping searches re-pay nothing for configurations the database
// has already seen: the E metric counts only new evaluations. The first
// warm start from a key reads its records in one single-shard scan and
// keeps them resident (see resident); every later one, for as long as
// the database stays open and the key within the budget, hands the
// cache the resident records and reads nothing. Either way the cache
// gets one batch, in canonical key order — the order is part of the
// result: the cache keeps the first of two entries and a surrogate
// trains in it — which a fresh cache reads in place, copying nothing
// (see objective.CachingEvaluator.PrimeBatch). It returns the number of
// entries primed. A scan that fails — a read fault, a damaged frame, an
// undecodable value — primes nothing, leaves nothing resident and
// returns the error: a search warm-started from part of its history
// would quietly find a different front than from all of it. Evaluations
// never warm across machines; objective values measured (or modeled) on
// one machine are meaningless on another.
func (db *DB) Warm(key Key, ce *objective.CachingEvaluator) (primed int, err error) {
	cfgs, cks, objs, err := db.history(key)
	if err != nil {
		return 0, err
	}
	return ce.PrimeBatch(cfgs, cks, objs), nil
}

// history returns what the key holds, in store-key order: the resident
// records — configurations, their keys, results — or those of a scan,
// which become resident.
func (db *DB) history(key Key) ([]skeleton.Config, []string, [][]float64, error) {
	ks, prefix := db.keyStrings(key)
	defer db.res.lockKey(ks).Unlock()
	h := db.res.lookup(ks, true)
	if h != nil {
		h.settle()
	} else {
		var err error
		if h, err = db.scanHistory(prefix); err != nil {
			return nil, nil, nil, err
		}
		if db.res.admit(ks, h) {
			db.keptNames(key)
		}
	}
	return h.cfgs, h.keys, h.objs, nil
}

// WarmCache is Warm with the error dropped: a failed scan reads as
// nothing stored. Only the repository benchmark, which this package may
// not edit, still calls it; everything else calls Warm.
func (db *DB) WarmCache(key Key, ce *objective.CachingEvaluator) int {
	primed, _ := db.Warm(key, ce)
	return primed
}

// NearestFront finds the stored front best matching key: an exact
// match if present, otherwise the transferable front (same program,
// objectives and space) whose machine signature is nearest to sig —
// the cross-machine transfer path. Candidate fronts come from a
// single-shard range scan: sharding is by program fingerprint, so
// every machine's front for this program lives in one shard. The
// returned distance is 0 for an exact match. A read that fails, and a
// stored front it would compare that does not decode, count as no
// usable front; Seeds is the form that reports them.
func (db *DB) NearestFront(key Key, sig machine.Signature) (FrontRecord, float64, bool) {
	rec, dist, ok, err := db.nearestFront(key, sig)
	return rec, dist, ok && err == nil
}

func (db *DB) nearestFront(key Key, sig machine.Signature) (FrontRecord, float64, bool, error) {
	if rec, ok, err := db.front(key); ok || err != nil {
		return rec, 0, ok, err
	}
	best := FrontRecord{}
	bestDist := math.Inf(1)
	found := false
	// All transferable fronts share key's program fingerprint — the
	// first component of the canonical string — so a fingerprint-prefix
	// scan covers every candidate.
	it := db.st.Iter(nsFront + key.Fingerprint + "|")
	defer it.Close()
	for it.Next() {
		// A front that does not decode may be the nearest one.
		rec, err := decodeFront(strings.TrimPrefix(it.Key(), nsFront), it.Value())
		if err != nil {
			return FrontRecord{}, 0, false, err
		}
		if !key.Transferable(rec.Key) {
			continue
		}
		d := sig.Distance(rec.Machine)
		if d < bestDist || (d == bestDist && rec.Key.String() < best.Key.String()) {
			best, bestDist, found = rec, d, true
		}
	}
	if err := it.Err(); err != nil {
		// The nearest of the fronts that could be read is not the
		// nearest front.
		return FrontRecord{}, 0, false, fmt.Errorf("tunedb: %w", err)
	}
	return best, bestDist, found, nil
}

// Seeds returns up to k stored Pareto-front configurations to inject
// into an initial search population: the exact key's front when
// present, otherwise the nearest-signature transferable front. Every
// configuration is clamped into the current space; wrong-dimension and
// duplicate configurations are dropped. A nil result means no usable
// stored front exists; an error means the database could not be read,
// or holds a front it would compare that does not decode — the error
// names its key — which is not the same thing: seeding from the next
// nearest front, or from none, would hide the damage.
func (db *DB) Seeds(key Key, sig machine.Signature, space skeleton.Space, k int) ([]skeleton.Config, error) {
	rec, _, ok, err := db.nearestFront(key, sig)
	if err != nil || !ok || k <= 0 {
		return nil, err
	}
	seen := map[string]bool{}
	var out []skeleton.Config
	for _, p := range rec.Points {
		if len(out) == k {
			break
		}
		if len(p.Config) != space.Dim() {
			continue
		}
		cfg := space.Clip(skeleton.Config(p.Config))
		ck := cfg.Key()
		if seen[ck] {
			continue
		}
		seen[ck] = true
		out = append(out, cfg)
	}
	return out, nil
}

// SeedPopulation is Seeds with the error dropped, kept — like WarmCache
// — for the repository benchmark alone.
func (db *DB) SeedPopulation(key Key, sig machine.Signature, space skeleton.Space, k int) []skeleton.Config {
	seeds, _ := db.Seeds(key, sig, space, k)
	return seeds
}
