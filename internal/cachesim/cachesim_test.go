package cachesim

import (
	"strings"
	"testing"

	"autotune/internal/machine"
)

func TestNewCacheValidation(t *testing.T) {
	if _, err := newCache("c", 1024, 63, 2); err == nil {
		t.Error("non-power-of-two line size should fail")
	}
	if _, err := newCache("c", 1024, 64, 0); err == nil {
		t.Error("zero associativity should fail")
	}
	if _, err := newCache("c", 64*3, 64, 2); err == nil {
		t.Error("size not divisible into sets should fail")
	}
	c, err := newCache("c", 30<<20, 64, 24)
	if err != nil {
		t.Fatalf("Westmere L3 geometry rejected: %v", err)
	}
	if c.name != "c" {
		t.Error("name wrong")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c, _ := newCache("L1", 1024, 64, 2) // 8 sets, 2 ways
	if c.Access(0) {
		t.Error("cold access should miss")
	}
	if !c.Access(0) {
		t.Error("repeat access should hit")
	}
	if !c.Access(63) {
		t.Error("same-line access should hit")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	if st := c.stats; st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c, _ := newCache("L1", 1024, 64, 2) // 8 sets
	// Three blocks mapping to set 0: block ids 0, 8, 16.
	a0, a8, a16 := uint64(0), uint64(8*64), uint64(16*64)
	c.Access(a0)
	c.Access(a8)
	c.Access(a0)  // a0 most recently used
	c.Access(a16) // evicts a8 (LRU)
	if !c.Access(a0) {
		t.Error("a0 should still be resident")
	}
	if c.Access(a8) {
		t.Error("a8 should have been evicted")
	}
}

func TestCacheCapacityWorkingSet(t *testing.T) {
	c, _ := newCache("L1", 32<<10, 64, 8)
	// Working set half the cache: second pass must hit entirely.
	lines := (32 << 10) / 64 / 2
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if st := c.stats; st.Misses != uint64(lines) {
		t.Fatalf("misses = %d, want %d (cold only)", st.Misses, lines)
	}
}

func TestCacheThrashingWorkingSet(t *testing.T) {
	c, _ := newCache("L1", 1024, 64, 2)
	// Working set 2x the cache, streamed cyclically: with LRU every
	// access misses after warmup.
	lines := 2 * 1024 / 64
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i * 64))
		}
	}
	if st := c.stats; st.Misses != st.Accesses {
		t.Fatalf("cyclic thrashing: %d misses in %d accesses, want every access a miss", st.Misses, st.Accesses)
	}
}

func TestHierarchyPrivateAndShared(t *testing.T) {
	m := machine.Barcelona()     // 4 cores per socket
	h, err := NewHierarchy(m, 8) // 2 sockets
	if err != nil {
		t.Fatal(err)
	}
	// 8 threads × (L1+L2 private) + 2 shared L3 instances.
	want := 8*2 + 2
	if len(h.Levels()) != want {
		t.Fatalf("instances = %d, want %d", len(h.Levels()), want)
	}
}

func TestHierarchySharedL3Visibility(t *testing.T) {
	m := machine.Barcelona()
	h, err := NewHierarchy(m, 2) // both threads on socket 0
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 loads a line; thread 1's L1/L2 miss but shared L3 hits.
	if lvl := h.Access(0, 4096); lvl != 3 {
		t.Fatalf("cold access level = %d, want 3 (memory)", lvl)
	}
	if lvl := h.Access(1, 4096); lvl != 2 {
		t.Fatalf("cross-thread access level = %d, want 2 (shared L3)", lvl)
	}
}

func TestHierarchyCrossSocketNoSharing(t *testing.T) {
	m := machine.Barcelona()
	h, err := NewHierarchy(m, 5) // threads 0-3 socket 0, thread 4 socket 1
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, 4096)
	if lvl := h.Access(4, 4096); lvl != 3 {
		t.Fatalf("cross-socket access level = %d, want 3 (memory)", lvl)
	}
}

// TestHierarchyLevelMisses streams 100 lines through a one-thread
// Westmere hierarchy twice: the first pass misses L1 on every access,
// the second (the lines fit) on none.
func TestHierarchyLevelMisses(t *testing.T) {
	h, err := NewHierarchy(machine.Westmere(), 1)
	if err != nil {
		t.Fatal(err)
	}
	l1 := func() Stats {
		for _, l := range h.Levels() {
			if strings.HasPrefix(l.Name, "L1") {
				return l.Stats
			}
		}
		t.Fatal("no L1 instance")
		return Stats{}
	}
	for i := 0; i < 100; i++ {
		h.Access(0, uint64(i*64))
	}
	if st := l1(); st != (Stats{Accesses: 100, Misses: 100}) {
		t.Fatalf("streaming pass: L1 %+v, want 100 misses in 100 accesses", st)
	}
	for i := 0; i < 100; i++ {
		h.Access(0, uint64(i*64))
	}
	if st := l1(); st != (Stats{Accesses: 200, Misses: 100}) {
		t.Fatalf("reuse pass: L1 %+v, want 100 misses in 200 accesses", st)
	}
}

func TestHierarchyTooManyThreads(t *testing.T) {
	if _, err := NewHierarchy(machine.Barcelona(), 33); err == nil {
		t.Error("expected pin failure for 33 threads on 32 cores")
	}
}
