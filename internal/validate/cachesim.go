package validate

// The cache simulator: trace-driven set-associative caches with LRU
// replacement in multi-level, multi-threaded hierarchies in which inner
// levels are private per thread and outer levels may be shared by the
// threads of one socket — matching the machines modeled in
// internal/machine.

import (
	"errors"
	"fmt"

	"autotune/internal/machine"
)

// cacheStats accumulates access counts for one cache instance.
type cacheStats struct {
	accesses uint64
	misses   uint64
}

// cache is a single set-associative cache with LRU replacement. Set
// selection uses modulo indexing, so non-power-of-two set counts (e.g.
// the 24-way 30 MB Westmere L3) are supported.
type cache struct {
	lineBits uint
	nSets    uint64
	assoc    uint64
	// lines holds the sets one after another: set s is
	// lines[s*assoc : (s+1)*assoc], most recently used way first. A way
	// holds its line's block id plus one, 0 when it is empty, so empty
	// ways sit behind every filled one.
	lines []uint64
	stats cacheStats
}

// newCache builds a cache of the given total size. size must be
// divisible by lineBytes*assoc and lineBytes must be a power of two.
func newCache(size int64, lineBytes, assoc int) (*cache, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("validate: cache line size %d not a power of two", lineBytes)
	}
	if assoc <= 0 {
		return nil, errors.New("validate: cache associativity must be positive")
	}
	nLines := size / int64(lineBytes)
	if nLines <= 0 || nLines%int64(assoc) != 0 {
		return nil, fmt.Errorf("validate: cache size %d not divisible into %d-way sets of %d-byte lines",
			size, assoc, lineBytes)
	}
	nSets := nLines / int64(assoc)
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	return &cache{
		lineBits: lineBits,
		nSets:    uint64(nSets),
		assoc:    uint64(assoc),
		lines:    make([]uint64, nLines),
	}, nil
}

// access simulates one load/store to addr and reports whether it hit.
// The line moves to the front of its set; on a miss it is installed
// there, and the last way — an empty one, or else the least recently
// used — drops out.
func (c *cache) access(addr uint64) bool {
	c.stats.accesses++
	blk := addr >> c.lineBits
	first := blk % c.nSets * c.assoc
	set := c.lines[first : first+c.assoc]
	tag := blk + 1 // full block id as tag (set bits included; harmless)
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return true
		}
	}
	c.stats.misses++
	copy(set[1:], set)
	set[0] = tag
	return false
}

// hierarchy simulates the full cache hierarchy of a machine for a
// parallel region: private levels are instantiated per thread, shared
// (per-socket) levels once per socket, with threads mapped to sockets
// by the machine's pinning policy.
type hierarchy struct {
	// perThread[t][l] is the cache instance thread t accesses at
	// level l of the machine (shared instances aliased across threads).
	perThread [][]*cache
}

// newHierarchy builds the hierarchy for nThreads threads pinned on m.
func newHierarchy(m *machine.Machine, nThreads int) (*hierarchy, error) {
	placement, err := m.Pin(nThreads)
	if err != nil {
		return nil, err
	}
	h := &hierarchy{perThread: make([][]*cache, nThreads)}
	// socketOf[t] under fill-socket-first pinning.
	socketOf := make([]int, 0, nThreads)
	for s, cnt := range placement.ThreadsPerSocket() {
		for i := 0; i < cnt; i++ {
			socketOf = append(socketOf, s)
		}
	}
	sharedBySocket := map[string]map[int]*cache{}
	shared := func(lvl machine.CacheLevel, sock int) (*cache, error) {
		if sharedBySocket[lvl.Name] == nil {
			sharedBySocket[lvl.Name] = map[int]*cache{}
		}
		if c := sharedBySocket[lvl.Name][sock]; c != nil {
			return c, nil
		}
		c, err := newCache(lvl.SizeBytes, lvl.LineBytes, lvl.Associativity)
		if err == nil {
			sharedBySocket[lvl.Name][sock] = c
		}
		return c, err
	}
	for t := 0; t < nThreads; t++ {
		var chain []*cache
		for _, lvl := range m.Caches {
			var c *cache
			switch lvl.Scope {
			case machine.PerCore:
				c, err = newCache(lvl.SizeBytes, lvl.LineBytes, lvl.Associativity)
			case machine.PerSocket:
				c, err = shared(lvl, socketOf[t])
			case machine.Global:
				c, err = shared(lvl, 0)
			default:
				err = fmt.Errorf("validate: cache %s has unknown scope %v", lvl.Name, lvl.Scope)
			}
			if err != nil {
				return nil, err
			}
			chain = append(chain, c)
		}
		h.perThread[t] = chain
	}
	return h, nil
}

// reset empties every cache of the hierarchy, lines and counts, so
// that the next trace runs as through a new hierarchy.
func (h *hierarchy) reset() {
	for _, chain := range h.perThread {
		for _, c := range chain {
			clear(c.lines)
			c.stats = cacheStats{}
		}
	}
}

// access simulates one access by the given thread. It returns the
// index of the level that hit (0-based), or len(levels) when the
// access went to main memory.
func (h *hierarchy) access(thread int, addr uint64) int {
	chain := h.perThread[thread]
	for i, c := range chain {
		if c.access(addr) {
			return i
		}
	}
	return len(chain)
}
