package rts

import (
	"testing"

	"autotune/internal/testenv"
)

// dispatchPolicies are the four built-in policies, each with the
// version it ranks first on dispatchRuntime's table.
var dispatchPolicies = []struct {
	name   string
	policy func() Policy
	first  int
}{
	{"Weighted", func() Policy { return WeightedSum{Weights: []float64{1, 0}} }, 2},
	{"Constrained", func() Policy { return FastestWithinBudget{Optimize: 0, Constrain: 1, Budget: 1.3} }, 1},
	{"Adaptive", func() Policy { return &Adaptive{Epsilon: 0.1, Seed: 1} }, 2},
	{"Fixed", func() Policy { return Fixed{Index: 1} }, 1},
}

// dispatchPaths are the two ways through Invoke: every version healthy,
// or the first-ranked version failing on every call (a fallback, or for
// Fixed, which ranks one version, a failed invocation).
var dispatchPaths = []string{"healthy", "fallback"}

// dispatchRuntime is the runtime of one policy and path over the
// three-version table. The breaker is off, so every call takes the same
// path.
func dispatchRuntime(tb testing.TB, policy int, path string) *Runtime {
	tb.Helper()
	c := dispatchPolicies[policy]
	u := table([]string{"time", "resources"}, []float64{1, 1.0, 1.0}, []float64{10, 0.12, 1.2}, []float64{40, 0.04, 1.6})
	for i := range u.Versions {
		var err error
		if path == "fallback" && i == c.first {
			err = errBoom
		}
		u.Versions[i].Entry = func() error { return err }
	}
	rt, err := New(u, c.policy())
	if err != nil {
		tb.Fatal(err)
	}
	rt.SetHealthConfig(HealthConfig{FailureThreshold: -1})
	return rt
}

func benchmarkInvoke(b *testing.B, policy int) {
	for _, path := range dispatchPaths {
		b.Run(path, func(b *testing.B) {
			rt := dispatchRuntime(b, policy, path)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Invoke()
			}
		})
	}
}

func BenchmarkInvokeWeighted(b *testing.B)    { benchmarkInvoke(b, 0) }
func BenchmarkInvokeConstrained(b *testing.B) { benchmarkInvoke(b, 1) }
func BenchmarkInvokeAdaptive(b *testing.B)    { benchmarkInvoke(b, 2) }
func BenchmarkInvokeFixed(b *testing.B)       { benchmarkInvoke(b, 3) }

// invokeAllocCeiling is the allocations of one Invoke per policy and
// path as the one fallback loop measures them: per call what the
// policy's Rank allocates and the eligible list, and on a failed
// invocation its error.
// A ceiling: lower it when Invoke allocates less, never raise it.
var invokeAllocCeiling = map[string]float64{
	"Weighted/healthy":     7,
	"Weighted/fallback":    7,
	"Constrained/healthy":  8,
	"Constrained/fallback": 8,
	"Adaptive/healthy":     4,
	"Adaptive/fallback":    4,
	"Fixed/healthy":        2,
	"Fixed/fallback":       4,
}

// TestInvokeAllocationBudget holds every policy's Invoke, healthy and
// falling back, to its allocation ceiling.
func TestInvokeAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	for k, c := range dispatchPolicies {
		for _, path := range dispatchPaths {
			rt := dispatchRuntime(t, k, path)
			got := testing.AllocsPerRun(200, func() { rt.Invoke() })
			name := c.name + "/" + path
			t.Logf("%s: %v allocations per Invoke", name, got)
			if got > invokeAllocCeiling[name] {
				t.Errorf("%s: %v allocations per Invoke, ceiling %v", name, got, invokeAllocCeiling[name])
			}
		}
	}
}
