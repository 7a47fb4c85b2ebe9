package validate

import (
	"testing"

	"autotune/internal/machine"
)

func TestNewCacheValidation(t *testing.T) {
	if _, err := newCache(1024, 63, 2); err == nil {
		t.Error("non-power-of-two line size should fail")
	}
	if _, err := newCache(1024, 64, 0); err == nil {
		t.Error("zero associativity should fail")
	}
	if _, err := newCache(64*3, 64, 2); err == nil {
		t.Error("size not divisible into sets should fail")
	}
	c, err := newCache(30<<20, 64, 24)
	if err != nil {
		t.Fatalf("Westmere L3 geometry rejected: %v", err)
	}
	if c.nSets != 30<<20/64/24 {
		t.Errorf("Westmere L3 has %d sets, want %d", c.nSets, 30<<20/64/24)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := newCache(1024, 64, 2) // 8 sets, 2 ways
	if c.access(0) {
		t.Error("cold access should miss")
	}
	if !c.access(0) {
		t.Error("repeat access should hit")
	}
	if !c.access(63) {
		t.Error("same-line access should hit")
	}
	if c.access(64) {
		t.Error("next line should miss")
	}
	if st := c.stats; st.accesses != 4 || st.misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c, _ := newCache(1024, 64, 2) // 8 sets
	// Three blocks mapping to set 0: block ids 0, 8, 16.
	a0, a8, a16 := uint64(0), uint64(8*64), uint64(16*64)
	c.access(a0)
	c.access(a8)
	c.access(a0)  // a0 most recently used
	c.access(a16) // evicts a8 (LRU)
	if !c.access(a0) {
		t.Error("a0 should still be resident")
	}
	if c.access(a8) {
		t.Error("a8 should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	c, _ := newCache(32<<10, 64, 8)
	// Working set half the cache: second pass must hit entirely.
	lines := (32 << 10) / 64 / 2
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.access(uint64(i * 64))
		}
	}
	if st := c.stats; st.misses != uint64(lines) {
		t.Fatalf("misses = %d, want %d (cold only)", st.misses, lines)
	}
}

func TestCacheThrashingWorkingSet(t *testing.T) {
	c, _ := newCache(1024, 64, 2)
	// Working set 2x the cache, streamed cyclically: with LRU every
	// access misses after warmup.
	lines := 2 * 1024 / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.access(uint64(i * 64))
		}
	}
	if st := c.stats; st.misses != st.accesses {
		t.Fatalf("cyclic thrashing: %d misses in %d accesses, want every access a miss", st.misses, st.accesses)
	}
}

func TestHierarchyPrivateAndShared(t *testing.T) {
	m := machine.Barcelona()     // 4 cores per socket
	h, err := newHierarchy(m, 8) // 2 sockets
	if err != nil {
		t.Fatal(err)
	}
	// 8 threads × (L1+L2 private) + 2 shared L3 instances.
	instances := map[*cache]bool{}
	for _, chain := range h.perThread {
		for _, c := range chain {
			instances[c] = true
		}
	}
	if want := 8*2 + 2; len(instances) != want {
		t.Fatalf("instances = %d, want %d", len(instances), want)
	}
}

func TestHierarchySharedL3Visibility(t *testing.T) {
	m := machine.Barcelona()
	h, err := newHierarchy(m, 2) // both threads on socket 0
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 loads a line; thread 1's L1/L2 miss but shared L3 hits.
	if lvl := h.access(0, 4096); lvl != 3 {
		t.Fatalf("cold access level = %d, want 3 (memory)", lvl)
	}
	if lvl := h.access(1, 4096); lvl != 2 {
		t.Fatalf("cross-thread access level = %d, want 2 (shared L3)", lvl)
	}
}

func TestHierarchyCrossSocketNoSharing(t *testing.T) {
	m := machine.Barcelona()
	h, err := newHierarchy(m, 5) // threads 0-3 socket 0, thread 4 socket 1
	if err != nil {
		t.Fatal(err)
	}
	h.access(0, 4096)
	if lvl := h.access(4, 4096); lvl != 3 {
		t.Fatalf("cross-socket access level = %d, want 3 (memory)", lvl)
	}
}

// TestHierarchyLevelMisses streams 100 lines through a one-thread
// Westmere hierarchy three times: the first pass misses L1 on every
// access, the second (the lines fit) on none, and the third, after a
// reset, on every access again, as through a new hierarchy.
func TestHierarchyLevelMisses(t *testing.T) {
	h, err := newHierarchy(machine.Westmere(), 1)
	if err != nil {
		t.Fatal(err)
	}
	l1 := func() cacheStats { return h.perThread[0][0].stats }
	for i := 0; i < 100; i++ {
		h.access(0, uint64(i*64))
	}
	if st := l1(); st != (cacheStats{accesses: 100, misses: 100}) {
		t.Fatalf("streaming pass: L1 %+v, want 100 misses in 100 accesses", st)
	}
	for i := 0; i < 100; i++ {
		h.access(0, uint64(i*64))
	}
	if st := l1(); st != (cacheStats{accesses: 200, misses: 100}) {
		t.Fatalf("reuse pass: L1 %+v, want 100 misses in 200 accesses", st)
	}
	h.reset()
	for i := 0; i < 100; i++ {
		h.access(0, uint64(i*64))
	}
	if st := l1(); st != (cacheStats{accesses: 100, misses: 100}) {
		t.Fatalf("pass after reset: L1 %+v, want 100 misses in 100 accesses", st)
	}
}

func TestHierarchyTooManyThreads(t *testing.T) {
	if _, err := newHierarchy(machine.Barcelona(), 33); err == nil {
		t.Error("expected pin failure for 33 threads on 32 cores")
	}
}

// TestHierarchyRefusesUnknownScope: every level of a machine must be
// one cache in every thread's chain, since CacheModel reads level i of
// the chain by index; a level of no known scope is refused.
func TestHierarchyRefusesUnknownScope(t *testing.T) {
	m := machine.Westmere()
	m.Caches[1].Scope = machine.CacheScope(7)
	if _, err := newHierarchy(m, 1); err == nil {
		t.Fatal("a cache level of unknown scope was accepted")
	}
}
