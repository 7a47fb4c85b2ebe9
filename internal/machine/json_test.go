package machine

import (
	"encoding/json"
	"strings"
	"testing"
)

// toJSON writes the machine description in the format FromJSON reads.
func toJSON(m *Machine) ([]byte, error) {
	jm := jsonMachine{
		Name:               m.Name,
		Sockets:            m.Sockets,
		CoresPerSocket:     m.CoresPerSocket,
		ThreadsPerCore:     m.ThreadsPerCore,
		ClockGHz:           m.ClockGHz,
		TurboGHz:           m.TurboGHz,
		FlopsPerCycle:      m.FlopsPerCycle,
		MemLatencyCycles:   m.MemLatencyCycles,
		MemBandwidthGBs:    m.MemBandwidthGBs,
		ParallelOverheadUS: m.ParallelOverheadUS,
		NUMAPenalty:        m.NUMAPenalty,
		KernelVersion:      m.KernelVersion,
	}
	for _, c := range m.Caches {
		jm.Caches = append(jm.Caches, jsonCache{
			Name:          c.Name,
			SizeBytes:     c.SizeBytes,
			LineBytes:     c.LineBytes,
			Associativity: c.Associativity,
			LatencyCycles: c.LatencyCycles,
			Scope:         c.Scope.String(),
		})
	}
	return json.MarshalIndent(jm, "", "  ")
}

func TestJSONRoundTrip(t *testing.T) {
	for _, orig := range []*Machine{Westmere(), Barcelona()} {
		data, err := toJSON(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.Name != orig.Name || back.Cores() != orig.Cores() ||
			back.ClockGHz != orig.ClockGHz || back.TurboGHz != orig.TurboGHz ||
			back.NUMAPenalty != orig.NUMAPenalty {
			t.Fatalf("round trip changed scalars: %+v vs %+v", back, orig)
		}
		if len(back.Caches) != len(orig.Caches) {
			t.Fatal("round trip lost caches")
		}
		for i := range back.Caches {
			if back.Caches[i] != orig.Caches[i] {
				t.Fatalf("cache %d changed: %+v vs %+v", i, back.Caches[i], orig.Caches[i])
			}
		}
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{")); err == nil {
		t.Error("bad JSON accepted")
	}
	// Structurally valid JSON but invalid machine (no caches).
	if _, err := FromJSON([]byte(`{"name":"x","sockets":1,"coresPerSocket":1,"threadsPerCore":1,"clockGHz":1,"memBandwidthGBs":1}`)); err == nil {
		t.Error("cacheless machine accepted")
	}
	// Unknown scope.
	bad := `{"name":"x","sockets":1,"coresPerSocket":1,"threadsPerCore":1,"clockGHz":1,"memBandwidthGBs":1,
	  "caches":[{"name":"L1","sizeBytes":1024,"lineBytes":64,"associativity":2,"latencyCycles":4,"scope":"weird"}]}`
	if _, err := FromJSON([]byte(bad)); err == nil || !strings.Contains(err.Error(), "scope") {
		t.Errorf("unknown scope accepted: %v", err)
	}
}

func TestFromJSONDefaultScope(t *testing.T) {
	j := `{"name":"mini","sockets":1,"coresPerSocket":2,"threadsPerCore":1,"clockGHz":2,
	  "flopsPerCycle":2,"memLatencyCycles":100,"memBandwidthGBs":5,
	  "caches":[{"name":"L1","sizeBytes":32768,"lineBytes":64,"associativity":4,"latencyCycles":4}]}`
	m, err := FromJSON([]byte(j))
	if err != nil {
		t.Fatal(err)
	}
	if m.Caches[0].Scope != PerCore {
		t.Fatal("missing scope should default to per-core")
	}
}
