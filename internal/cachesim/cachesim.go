// Package cachesim provides a trace-driven set-associative cache
// simulator with LRU replacement and multi-level, multi-threaded
// hierarchies in which inner levels are private per thread and outer
// levels may be shared by the threads of one socket — matching the
// machines modeled in internal/machine.
//
// The simulator grounds the analytical performance model
// (internal/perfmodel): tests replay small kernel traces through both
// and check that the analytical cache-fit classification agrees with
// simulated miss rates.
package cachesim

import (
	"errors"
	"fmt"

	"autotune/internal/machine"
)

// Stats accumulates access counts for one cache instance.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

// cache is a single set-associative cache with LRU replacement. Set
// selection uses modulo indexing, so non-power-of-two set counts (e.g.
// the 24-way 30 MB Westmere L3) are supported.
type cache struct {
	name      string
	lineBits  uint
	nSets     uint64
	assoc     int
	sets      [][]line
	clock     uint64
	stats     Stats
	lineBytes int
}

// newCache builds a cache of the given total size. size must be
// divisible by lineBytes*assoc and lineBytes must be a power of two.
func newCache(name string, size int64, lineBytes, assoc int) (*cache, error) {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d not a power of two", lineBytes)
	}
	if assoc <= 0 {
		return nil, errors.New("cachesim: associativity must be positive")
	}
	nLines := size / int64(lineBytes)
	if nLines <= 0 || nLines%int64(assoc) != 0 {
		return nil, fmt.Errorf("cachesim: size %d not divisible into %d-way sets of %d-byte lines",
			size, assoc, lineBytes)
	}
	nSets := nLines / int64(assoc)
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	c := &cache{
		name:      name,
		lineBits:  lineBits,
		nSets:     uint64(nSets),
		assoc:     assoc,
		sets:      make([][]line, nSets),
		lineBytes: lineBytes,
	}
	for i := range c.sets {
		c.sets[i] = make([]line, assoc)
	}
	return c, nil
}

// Access simulates one load/store to addr and reports whether it hit.
// On a miss the line is installed, evicting the LRU way.
func (c *cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	blk := addr >> c.lineBits
	set := c.sets[blk%c.nSets]
	tag := blk // full block id as tag (set bits included; harmless)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].used < set[victim].used {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = line{tag: tag, valid: true, used: c.clock}
	return false
}

// LevelStats pairs a level name with its statistics.
type LevelStats struct {
	Name  string
	Stats Stats
}

// Hierarchy simulates the full cache hierarchy of a machine for a
// parallel region: private levels are instantiated per thread, shared
// (per-socket) levels once per socket, with threads mapped to sockets
// by the machine's pinning policy.
type Hierarchy struct {
	mach *machine.Machine
	// perThread[t][l] is the cache instance thread t accesses at
	// level l (shared instances aliased across threads).
	perThread [][]*cache
	// instances lists every distinct cache for statistics.
	instances []*cache
}

// NewHierarchy builds the hierarchy for nThreads threads pinned on m.
func NewHierarchy(m *machine.Machine, nThreads int) (*Hierarchy, error) {
	placement, err := m.Pin(nThreads)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{mach: m, perThread: make([][]*cache, nThreads)}
	// socketOf[t] under fill-socket-first pinning.
	socketOf := make([]int, 0, nThreads)
	for s, cnt := range placement.ThreadsPerSocket() {
		for i := 0; i < cnt; i++ {
			socketOf = append(socketOf, s)
		}
	}
	sharedBySocket := map[string]map[int]*cache{}
	for t := 0; t < nThreads; t++ {
		var chain []*cache
		for _, lvl := range m.Caches {
			switch lvl.Scope {
			case machine.PerCore:
				c, err := newCache(fmt.Sprintf("%s.t%d", lvl.Name, t), lvl.SizeBytes, lvl.LineBytes, lvl.Associativity)
				if err != nil {
					return nil, err
				}
				h.instances = append(h.instances, c)
				chain = append(chain, c)
			case machine.PerSocket:
				sock := socketOf[t]
				if sharedBySocket[lvl.Name] == nil {
					sharedBySocket[lvl.Name] = map[int]*cache{}
				}
				c := sharedBySocket[lvl.Name][sock]
				if c == nil {
					c, err = newCache(fmt.Sprintf("%s.s%d", lvl.Name, sock), lvl.SizeBytes, lvl.LineBytes, lvl.Associativity)
					if err != nil {
						return nil, err
					}
					sharedBySocket[lvl.Name][sock] = c
					h.instances = append(h.instances, c)
				}
				chain = append(chain, c)
			case machine.Global:
				if sharedBySocket[lvl.Name] == nil {
					sharedBySocket[lvl.Name] = map[int]*cache{}
				}
				c := sharedBySocket[lvl.Name][0]
				if c == nil {
					c, err = newCache(lvl.Name, lvl.SizeBytes, lvl.LineBytes, lvl.Associativity)
					if err != nil {
						return nil, err
					}
					sharedBySocket[lvl.Name][0] = c
					h.instances = append(h.instances, c)
				}
				chain = append(chain, c)
			}
		}
		h.perThread[t] = chain
	}
	return h, nil
}

// Access simulates one access by the given thread. It returns the
// index of the level that hit (0-based), or len(levels) when the
// access went to main memory.
func (h *Hierarchy) Access(thread int, addr uint64) int {
	chain := h.perThread[thread]
	for i, c := range chain {
		if c.Access(addr) {
			return i
		}
	}
	return len(chain)
}

// Levels returns per-instance statistics for all distinct caches.
func (h *Hierarchy) Levels() []LevelStats {
	out := make([]LevelStats, len(h.instances))
	for i, c := range h.instances {
		out[i] = LevelStats{Name: c.name, Stats: c.stats}
	}
	return out
}
