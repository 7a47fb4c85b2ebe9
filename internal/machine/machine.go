// Package machine models the parallel target systems the auto-tuner
// optimizes for. A Machine describes the socket/core topology, the
// cache hierarchy (private vs shared levels), and the memory system
// parameters the analytical performance model in internal/perfmodel
// consumes.
//
// Two predefined machines mirror Table I of the paper: the 4-socket
// Intel Xeon E7-4870 system ("Westmere", 40 cores) and the 8-socket AMD
// Opteron 8356 system ("Barcelona", 32 cores). L1 and L2 are per-core
// private caches; L3 is shared among the cores of one socket.
package machine

import (
	"errors"
	"fmt"
)

// CacheScope says which execution units share one instance of a cache
// level.
type CacheScope int

const (
	// PerCore caches are private to a single physical core.
	PerCore CacheScope = iota
	// PerSocket caches are shared by all cores of one socket.
	PerSocket
	// Global caches (or memory) are shared machine-wide.
	Global
)

// String returns the scope name.
func (s CacheScope) String() string {
	switch s {
	case PerCore:
		return "per-core"
	case PerSocket:
		return "per-socket"
	case Global:
		return "global"
	default:
		return fmt.Sprintf("CacheScope(%d)", int(s))
	}
}

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	Name          string     // "L1", "L2", "L3"
	SizeBytes     int64      // capacity of one cache instance
	LineBytes     int        // cache line size
	Associativity int        // set associativity (0 = fully associative)
	LatencyCycles float64    // load-to-use latency on a hit
	Scope         CacheScope // which units share one instance
}

// UsableFraction models conflict misses: low associativity reduces the
// usable fraction of a cache's capacity. The performance model and the
// trace-driven validation both derate a level's capacity by it.
func (l CacheLevel) UsableFraction() float64 {
	if l.Associativity <= 0 {
		return 1
	}
	return 1 - 1/(1+float64(l.Associativity))
}

// Machine is a complete description of a target system.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int     // hardware threads per core (SMT)
	ClockGHz       float64 // nominal (all-cores-active) core clock
	// TurboGHz is the boosted clock a core reaches when its socket is
	// mostly idle; 0 disables turbo. The effective clock decays
	// linearly from TurboGHz at one active core per socket to ClockGHz
	// at a fully occupied socket.
	TurboGHz         float64
	FlopsPerCycle    float64 // peak double-precision FLOPs per cycle per core
	Caches           []CacheLevel
	MemLatencyCycles float64 // main-memory load-to-use latency
	// MemBandwidthGBs is the sustainable memory bandwidth of one
	// socket's memory controller in GB/s; concurrent threads on a
	// socket contend for it.
	MemBandwidthGBs float64
	// ParallelOverheadUS is the fixed fork/join cost of a parallel
	// region in microseconds per involved thread. It models barrier
	// and thread-management overheads.
	ParallelOverheadUS float64
	// NUMAPenalty is the per-additional-socket degradation of
	// effective memory bandwidth once a computation spans multiple
	// sockets (remote accesses, coherence traffic): effective
	// bandwidth is divided by 1 + NUMAPenalty*(socketsUsed-1).
	NUMAPenalty float64
	// KernelVersion is documentation-only metadata (Table I).
	KernelVersion string
}

// Cores returns the total number of physical cores.
func (m *Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Validate reports whether the machine description is internally
// consistent.
func (m *Machine) Validate() error {
	if m.Sockets <= 0 || m.CoresPerSocket <= 0 {
		return errors.New("machine: sockets and cores per socket must be positive")
	}
	if m.ThreadsPerCore <= 0 {
		return errors.New("machine: threads per core must be positive")
	}
	if m.ClockGHz <= 0 {
		return errors.New("machine: clock must be positive")
	}
	if m.MemBandwidthGBs <= 0 {
		return errors.New("machine: memory bandwidth must be positive")
	}
	if len(m.Caches) == 0 {
		return errors.New("machine: at least one cache level required")
	}
	for i, c := range m.Caches {
		if c.SizeBytes <= 0 {
			return fmt.Errorf("machine: cache %s has non-positive size", c.Name)
		}
		if c.LineBytes <= 0 {
			return fmt.Errorf("machine: cache %s has non-positive line size", c.Name)
		}
		if i > 0 && c.SizeBytes < m.Caches[i-1].SizeBytes {
			return fmt.Errorf("machine: cache %s smaller than inner level %s", c.Name, m.Caches[i-1].Name)
		}
	}
	return nil
}

// Placement describes where the threads of a parallel region run under
// the paper's pinning policy ("fill socket first"): sockets are filled
// to CoresPerSocket one after the other, so the thread count and the
// socket shape determine it completely. It is a plain value — Pin sits
// on the per-evaluation path of the performance model and allocates
// nothing.
type Placement struct {
	threads        int
	sockets        int
	coresPerSocket int
}

// ThreadsPerSocket returns the number of threads pinned to each socket.
func (p Placement) ThreadsPerSocket() []int {
	out := make([]int, p.sockets)
	remaining := p.threads
	for s := 0; s < p.sockets && remaining > 0; s++ {
		out[s] = min(remaining, p.coresPerSocket)
		remaining -= out[s]
	}
	return out
}

// MaxThreadsOnSocket returns the largest per-socket thread count, which
// determines worst-case shared-cache pressure and bandwidth contention.
func (p Placement) MaxThreadsOnSocket() int { return min(p.threads, p.coresPerSocket) }

// SocketsUsed returns the number of sockets with at least one thread.
func (p Placement) SocketsUsed() int {
	if p.threads == 0 {
		return 0
	}
	return (p.threads + p.coresPerSocket - 1) / p.coresPerSocket
}

// Pin returns the placement of nThreads threads under the paper's
// pinning policy: threads are bound to individual physical cores such
// that the resources of one chip are fully utilized before involving an
// additional processor ("fill socket first").
func (m *Machine) Pin(nThreads int) (Placement, error) {
	if nThreads <= 0 {
		return Placement{}, errors.New("machine: thread count must be positive")
	}
	if nThreads > m.Cores() {
		return Placement{}, fmt.Errorf("machine: %d threads exceed %d physical cores on %s",
			nThreads, m.Cores(), m.Name)
	}
	return Placement{threads: nThreads, sockets: m.Sockets, coresPerSocket: m.CoresPerSocket}, nil
}

// SharedCacheShare returns, for the given cache level and a placement,
// the number of bytes of that cache effectively available to one
// thread. Private levels return the full instance size; shared levels
// divide the instance capacity among the threads co-located on the most
// loaded unit. This division is the mechanism behind the paper's
// observation that optimal tile sizes depend on thread count.
func (m *Machine) SharedCacheShare(level CacheLevel, p Placement) int64 {
	switch level.Scope {
	case PerCore:
		return level.SizeBytes
	case PerSocket:
		n := p.MaxThreadsOnSocket()
		if n <= 1 {
			return level.SizeBytes
		}
		return level.SizeBytes / int64(n)
	case Global:
		if p.threads <= 1 {
			return level.SizeBytes
		}
		return level.SizeBytes / int64(p.threads)
	default:
		return level.SizeBytes
	}
}

// CacheByName returns the cache level with the given name.
func (m *Machine) CacheByName(name string) (CacheLevel, bool) {
	for _, c := range m.Caches {
		if c.Name == name {
			return c, true
		}
	}
	return CacheLevel{}, false
}

// EffectiveClockGHz returns the core clock under the given placement,
// accounting for turbo boost at low per-socket occupancy.
func (m *Machine) EffectiveClockGHz(p Placement) float64 {
	if m.TurboGHz <= m.ClockGHz {
		return m.ClockGHz
	}
	occ := p.MaxThreadsOnSocket()
	if occ < 1 {
		occ = 1
	}
	if m.CoresPerSocket <= 1 {
		return m.ClockGHz
	}
	frac := float64(occ-1) / float64(m.CoresPerSocket-1)
	if frac > 1 {
		frac = 1
	}
	return m.TurboGHz - (m.TurboGHz-m.ClockGHz)*frac
}

// Westmere returns the paper's Intel system: 4 sockets of Xeon E7-4870,
// 10 physical cores (20 hardware threads) per socket, 32K/32K L1,
// 256K L2 private, 30M L3 shared per socket (Table I).
func Westmere() *Machine {
	return &Machine{
		Name:           "Westmere",
		Sockets:        4,
		CoresPerSocket: 10,
		ThreadsPerCore: 2,
		ClockGHz:       2.4,
		TurboGHz:       2.8,
		FlopsPerCycle:  4,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Associativity: 8, LatencyCycles: 4, Scope: PerCore},
			{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Associativity: 8, LatencyCycles: 10, Scope: PerCore},
			{Name: "L3", SizeBytes: 30 << 20, LineBytes: 64, Associativity: 24, LatencyCycles: 45, Scope: PerSocket},
		},
		MemLatencyCycles:   220,
		MemBandwidthGBs:    14,
		ParallelOverheadUS: 4,
		NUMAPenalty:        0.06,
		KernelVersion:      "2.6.32",
	}
}

// Barcelona returns the paper's AMD system: 8 sockets of Opteron 8356,
// 4 cores per socket, 64K/64K L1, 512K L2 private, 2M L3 shared per
// socket (Table I).
func Barcelona() *Machine {
	return &Machine{
		Name:           "Barcelona",
		Sockets:        8,
		CoresPerSocket: 4,
		ThreadsPerCore: 1,
		ClockGHz:       2.3,
		FlopsPerCycle:  4,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 64 << 10, LineBytes: 64, Associativity: 2, LatencyCycles: 3, Scope: PerCore},
			{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Associativity: 16, LatencyCycles: 12, Scope: PerCore},
			{Name: "L3", SizeBytes: 2 << 20, LineBytes: 64, Associativity: 32, LatencyCycles: 40, Scope: PerSocket},
		},
		MemLatencyCycles:   250,
		MemBandwidthGBs:    6.4,
		ParallelOverheadUS: 6,
		NUMAPenalty:        0.8,
		KernelVersion:      "2.6.18",
	}
}

// ByName returns a predefined machine by its (case-sensitive) name.
func ByName(name string) (*Machine, error) {
	switch name {
	case "Westmere", "westmere":
		return Westmere(), nil
	case "Barcelona", "barcelona":
		return Barcelona(), nil
	default:
		return nil, fmt.Errorf("machine: unknown machine %q (want Westmere or Barcelona)", name)
	}
}

// Names lists the predefined machine names.
func Names() []string { return []string{"Westmere", "Barcelona"} }
