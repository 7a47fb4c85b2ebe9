package machine

import (
	"testing"
	"testing/quick"

	"autotune/internal/testenv"
)

func TestPredefinedMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{Westmere(), Barcelona()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTableITopology(t *testing.T) {
	w := Westmere()
	if w.Cores() != 40 {
		t.Errorf("Westmere cores = %d, want 40", w.Cores())
	}
	if hw := w.Cores() * w.ThreadsPerCore; hw != 80 {
		t.Errorf("Westmere HW threads = %d, want 80", hw)
	}
	b := Barcelona()
	if b.Cores() != 32 {
		t.Errorf("Barcelona cores = %d, want 32", b.Cores())
	}
	if hw := b.Cores() * b.ThreadsPerCore; hw != 32 {
		t.Errorf("Barcelona HW threads = %d, want 32", hw)
	}
}

func TestTableICaches(t *testing.T) {
	w := Westmere()
	l3, ok := w.CacheByName("L3")
	if !ok || l3.SizeBytes != 30<<20 || l3.Scope != PerSocket {
		t.Errorf("Westmere L3 = %+v", l3)
	}
	b := Barcelona()
	l3b, ok := b.CacheByName("L3")
	if !ok || l3b.SizeBytes != 2<<20 {
		t.Errorf("Barcelona L3 = %+v", l3b)
	}
	if _, ok := w.CacheByName("L9"); ok {
		t.Error("CacheByName found nonexistent level")
	}
}

func TestPinFillsSocketFirst(t *testing.T) {
	w := Westmere()
	p, err := w.Pin(12)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 2, 0, 0}
	for i, n := range want {
		if p.ThreadsPerSocket()[i] != n {
			t.Fatalf("placement = %v, want %v", p.ThreadsPerSocket(), want)
		}
	}
	if p.SocketsUsed() != 2 {
		t.Errorf("SocketsUsed = %d, want 2", p.SocketsUsed())
	}
	if p.MaxThreadsOnSocket() != 10 {
		t.Errorf("MaxThreadsOnSocket = %d, want 10", p.MaxThreadsOnSocket())
	}
}

func TestPinBounds(t *testing.T) {
	w := Westmere()
	if _, err := w.Pin(0); err == nil {
		t.Error("Pin(0) should fail")
	}
	if _, err := w.Pin(41); err == nil {
		t.Error("Pin(41) should fail on a 40-core machine")
	}
	if _, err := w.Pin(40); err != nil {
		t.Errorf("Pin(40) failed: %v", err)
	}
}

func TestSharedCacheShareDivision(t *testing.T) {
	w := Westmere()
	l3, _ := w.CacheByName("L3")
	l1, _ := w.CacheByName("L1")

	p1, _ := w.Pin(1)
	p10, _ := w.Pin(10)

	if got := w.SharedCacheShare(l3, p1); got != l3.SizeBytes {
		t.Errorf("1-thread L3 share = %d, want full %d", got, l3.SizeBytes)
	}
	if got := w.SharedCacheShare(l3, p10); got != l3.SizeBytes/10 {
		t.Errorf("10-thread L3 share = %d, want %d", got, l3.SizeBytes/10)
	}
	// Private caches never shrink.
	if got := w.SharedCacheShare(l1, p10); got != l1.SizeBytes {
		t.Errorf("L1 share = %d, want %d", got, l1.SizeBytes)
	}
}

func TestSharedCacheShareGlobalScope(t *testing.T) {
	m := Westmere()
	g := CacheLevel{Name: "G", SizeBytes: 1 << 20, LineBytes: 64, Scope: Global}
	p, _ := m.Pin(12)
	if got := m.SharedCacheShare(g, p); got != (1<<20)/12 {
		t.Errorf("global share = %d, want %d", got, (1<<20)/12)
	}
	p1, _ := m.Pin(1)
	if got := m.SharedCacheShare(g, p1); got != 1<<20 {
		t.Errorf("global 1-thread share = %d", got)
	}
}

func TestValidateCatchesBadMachines(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.Sockets = 0 },
		func(m *Machine) { m.ThreadsPerCore = 0 },
		func(m *Machine) { m.ClockGHz = 0 },
		func(m *Machine) { m.MemBandwidthGBs = -1 },
		func(m *Machine) { m.Caches = nil },
		func(m *Machine) { m.Caches[0].SizeBytes = 0 },
		func(m *Machine) { m.Caches[1].LineBytes = 0 },
		func(m *Machine) { m.Caches[2].SizeBytes = 1 }, // smaller than L2
	}
	for i, mutate := range cases {
		m := Westmere()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil || m.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("Skylake"); err == nil {
		t.Error("expected error for unknown machine")
	}
}

func TestCacheScopeString(t *testing.T) {
	if PerCore.String() != "per-core" || PerSocket.String() != "per-socket" || Global.String() != "global" {
		t.Error("CacheScope strings wrong")
	}
	if CacheScope(99).String() == "" {
		t.Error("unknown scope should still stringify")
	}
}

// Property: pinning distributes exactly nThreads over sockets, never
// exceeding the per-socket core count.
func TestPinConservationProperty(t *testing.T) {
	machines := []*Machine{Westmere(), Barcelona()}
	f := func(raw uint8, which bool) bool {
		m := machines[0]
		if which {
			m = machines[1]
		}
		n := int(raw)%m.Cores() + 1
		p, err := m.Pin(n)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range p.ThreadsPerSocket() {
			if c < 0 || c > m.CoresPerSocket {
				return false
			}
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a shared cache share never exceeds the instance size and is
// monotonically non-increasing in the thread count.
func TestSharedCacheShareMonotoneProperty(t *testing.T) {
	m := Barcelona()
	l3, _ := m.CacheByName("L3")
	prev := int64(1) << 62
	for n := 1; n <= m.Cores(); n++ {
		p, err := m.Pin(n)
		if err != nil {
			t.Fatal(err)
		}
		share := m.SharedCacheShare(l3, p)
		if share > l3.SizeBytes {
			t.Fatalf("share %d exceeds cache size", share)
		}
		if share > prev {
			t.Fatalf("share grew from %d to %d at n=%d", prev, share, n)
		}
		prev = share
	}
}

// The closed-form placement summaries equal what a walk over the
// per-socket thread counts gives, for every thread count a machine
// admits (including shapes where the last socket is partly filled).
func TestPlacementSummariesMatchPerSocketCounts(t *testing.T) {
	odd := Westmere()
	odd.Sockets, odd.CoresPerSocket = 3, 7
	for _, m := range []*Machine{Westmere(), Barcelona(), odd} {
		for n := 1; n <= m.Cores(); n++ {
			p, err := m.Pin(n)
			if err != nil {
				t.Fatal(err)
			}
			maxOn, used, total := 0, 0, 0
			for _, c := range p.ThreadsPerSocket() {
				maxOn = max(maxOn, c)
				if c > 0 {
					used++
				}
				total += c
			}
			if p.MaxThreadsOnSocket() != maxOn || p.SocketsUsed() != used || total != n {
				t.Fatalf("%s n=%d: max %d used %d, per-socket walk gives max %d used %d total %d",
					m.Name, n, p.MaxThreadsOnSocket(), p.SocketsUsed(), maxOn, used, total)
			}
		}
	}
	var zero Placement
	if zero.MaxThreadsOnSocket() != 0 || zero.SocketsUsed() != 0 || len(zero.ThreadsPerSocket()) != 0 {
		t.Error("zero Placement is not empty")
	}
}

func TestPinAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := Westmere()
	if a := testing.AllocsPerRun(100, func() {
		p, _ := m.Pin(12)
		pinSink = p.MaxThreadsOnSocket() + p.SocketsUsed()
	}); a != 0 {
		t.Errorf("Pin allocates %v times per call, want 0", a)
	}
}

var pinSink int
