package objective

import (
	"math"
	"slices"
)

// entryState is where a configuration of the table stands.
type entryState uint8

const (
	// unknown: never evaluated here, or its evaluation was withdrawn.
	// The entry stays, and a later batch that leads it reuses it.
	unknown entryState = iota
	// inFlight: a batch is evaluating it.
	inFlight
	// done: its result is known — objs, nil for a failure.
	done
)

const (
	entryShift = 7
	// entryChunk is the number of entries a chunk of the table holds.
	entryChunk = 1 << entryShift
	entryMask  = entryChunk - 1
	valShift   = 10
	// valChunk is the number of configuration values a value chunk
	// holds; a longer configuration gets a slice of its own.
	valChunk = 1 << valShift
	valMask  = valChunk - 1
	// longCfg is the tableEntry.n of a configuration kept in long.
	longCfg = math.MaxUint16
	// minSlots is the length of the slot index when the first entry
	// arrives.
	minSlots = 32
)

// tableEntry is one configuration of a configTable: where its copied
// values are and, for the evaluator, its state and result.
type tableEntry struct {
	objs  []float64
	at    uint32 // the values' position in vals, or the index in long
	n     uint16 // the number of values, or longCfg
	tag   uint8  // the top byte of the configuration's hash
	state entryState
}

// configTable is the evaluation cache's index of configurations: an
// open-addressing hash table keyed by a configuration's int64 values, no
// string rendered. A linearly probed slot index, at most three quarters
// full, holds entry numbers; entries and the copied values live in
// fixed-size chunks that never move, so the index is all that growth
// copies and an entry's address stays valid for the table's life.
// Entries are never removed. The zero value is an empty table.
type configTable struct {
	slots   []int32 // entry number + 1 per slot, 0 for an empty one; a power of two long
	entries []*[entryChunk]tableEntry
	vals    []*[valChunk]int64
	long    [][]int64
	n       int    // entries
	valEnd  uint32 // where the next configuration's values go in vals
}

// hashConfig mixes a configuration's length and values into 64 bits: a
// multiply-xorshift step per value and splitmix64's finaliser. It is
// fixed — no per-process seed — so the probe order is the same in every
// process.
func hashConfig(cfg []int64) uint64 {
	h := uint64(len(cfg)) * 0x9e3779b97f4a7c15
	for _, v := range cfg {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 32
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// at returns entry e. The pointer stays valid for the table's life.
func (t *configTable) at(e int32) *tableEntry {
	return &t.entries[e>>entryShift][e&entryMask]
}

// values returns the copied values of ent, which the caller must not
// modify.
func (t *configTable) values(ent *tableEntry) []int64 {
	switch ent.n {
	case 0:
		return nil
	case longCfg:
		return t.long[ent.at]
	}
	off := ent.at & valMask
	return t.vals[ent.at>>valShift][off : off+uint32(ent.n)]
}

// lookup returns the entry of cfg, or -1 if it has none, and cfg's hash
// for insert.
func (t *configTable) lookup(cfg []int64) (e int32, h uint64) {
	h = hashConfig(cfg)
	if t.n == 0 {
		return -1, h
	}
	mask := len(t.slots) - 1
	tag := uint8(h >> 56)
	for p := int(h) & mask; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			return -1, h
		}
		if ent := t.at(s - 1); ent.tag == tag && slices.Equal(t.values(ent), cfg) {
			return s - 1, h
		}
	}
}

// insert adds an unknown entry for cfg, whose hash is h and which the
// table does not hold, copying its values, and returns it.
func (t *configTable) insert(cfg []int64, h uint64) int32 {
	t.reserve(1)
	e := int32(t.n)
	if t.n&entryMask == 0 {
		t.entries = append(t.entries, new([entryChunk]tableEntry))
	}
	ent := t.at(e)
	*ent = tableEntry{tag: uint8(h >> 56)}
	switch {
	case len(cfg) > valChunk:
		ent.at, ent.n = uint32(len(t.long)), longCfg
		t.long = append(t.long, slices.Clone(cfg))
	case len(cfg) > 0:
		if int(t.valEnd)+len(cfg) > len(t.vals)*valChunk {
			// The configuration would straddle two chunks: it starts
			// a new one.
			t.valEnd = uint32(len(t.vals) * valChunk)
			t.vals = append(t.vals, new([valChunk]int64))
		}
		ent.at, ent.n = t.valEnd, uint16(len(cfg))
		copy(t.values(ent), cfg)
		t.valEnd += uint32(len(cfg))
	}
	t.n++
	t.place(e, h)
	return e
}

// place writes entry e, whose hash is h, into the first empty slot of
// its probe sequence.
func (t *configTable) place(e int32, h uint64) {
	mask := len(t.slots) - 1
	p := int(h) & mask
	for t.slots[p] != 0 {
		p = (p + 1) & mask
	}
	t.slots[p] = e + 1
}

// reserve grows the slot index, once, so that n more entries than the
// table holds keep it at most three quarters full. Entries do not move,
// so growing rehashes only the slot index.
func (t *configTable) reserve(n int) {
	size := max(len(t.slots), minSlots)
	for (t.n+n)*4 > size*3 {
		size *= 2
	}
	if size == len(t.slots) || t.n+n <= 0 {
		return
	}
	t.slots = make([]int32, size)
	for e := int32(0); int(e) < t.n; e++ {
		t.place(e, hashConfig(t.values(t.at(e))))
	}
}
