// Faulttolerant: demonstrates the runtime system's robustness layer.
// The compiler emits a multi-versioned unit for the mm kernel; the
// program binds entries, then injects a 30% per-invocation fault rate
// into the fastest version — the one a latency-critical policy always
// prefers — and drives 1000 invocations.
//
// The runtime recovers every failure by falling back to the policy's
// next-ranked version, quarantines the flaky version after repeated
// consecutive failures (circuit breaker), probes it again after the
// cool-down, and surfaces every intervention through InvocationStats
// and the event hook. The caller sees zero errors, and the failures the
// runtime absorbed are exactly the faults the injector counts.
package main

import (
	"errors"
	"fmt"
	"log"
	"sort"

	"autotune"
)

func main() {
	res, err := autotune.Tune("mm",
		autotune.WithMachine("Westmere"),
		autotune.WithSeed(1),
		autotune.WithNoise(0.01),
	)
	if err != nil {
		log.Fatal(err)
	}
	unit := res.Unit
	fmt.Printf("tuned %s: %d Pareto-optimal versions\n", unit.Region, len(unit.Versions))

	// Bind lightweight entries; a real deployment would dispatch into
	// the specialized compiled functions.
	if err := unit.Bind(func(m autotune.Meta) (autotune.Entry, error) {
		return func() error { return nil }, nil
	}); err != nil {
		log.Fatal(err)
	}

	rt, err := autotune.NewRuntime(unit, autotune.WeightedSum{Weights: []float64{1, 0}})
	if err != nil {
		log.Fatal(err)
	}

	// The latency-critical policy always prefers the fastest version;
	// make exactly that version flaky.
	fastest := 0
	for i, v := range unit.Versions {
		if v.Meta.Objectives[0] < unit.Versions[fastest].Meta.Objectives[0] {
			fastest = i
		}
	}
	fmt.Printf("injecting 30%% fault rate into version %d (the policy's first choice)\n\n", fastest)
	injector := &autotune.FaultInjector{
		ErrorRate: 0.3,
		Versions:  []int{fastest},
		Seed:      7,
	}
	rt.SetFaultInjector(injector)
	rt.SetHealthConfig(autotune.HealthConfig{FailureThreshold: 3, Cooldown: 20})

	// Trace the circuit breaker's decisions: a quarantine follows the
	// failure event that tripped it, and every event names the region
	// and the version's place in the policy's ranking (Attempt, from 0).
	transitions := 0
	var lastErr error
	rt.SetEventHook(func(e autotune.RuntimeEvent) {
		switch e.Type {
		case autotune.RuntimeEventFailure:
			lastErr = e.Err
		case autotune.RuntimeEventQuarantine, autotune.RuntimeEventReadmit:
			transitions++
			if transitions > 8 {
				return
			}
			fmt.Printf("  [event] %-10s %s version %d (policy choice %d)", e.Type, e.Region, e.Version, e.Attempt+1)
			if e.Type == autotune.RuntimeEventQuarantine {
				fmt.Printf(" after: %v", lastErr)
			}
			fmt.Println()
		}
	})

	const invocations = 1000
	callerErrors := 0
	for i := 0; i < invocations; i++ {
		if _, err := rt.Invoke(); err != nil {
			callerErrors++
			if errors.Is(err, autotune.ErrAllQuarantined) {
				log.Fatalf("invocation %d: %v", i, err)
			}
		}
	}
	if transitions > 8 {
		fmt.Printf("  [event] ... %d more quarantine/readmit transitions\n", transitions-8)
	}

	st := rt.Stats()
	fmt.Printf("\n%d invocations, %d caller-visible errors\n", invocations, callerErrors)
	injected, _ := injector.Counts()
	fmt.Printf("faults injected:          %d\n", injected)
	fmt.Printf("entry failures absorbed:  %d\n", st.Failures)
	fmt.Printf("fallbacks to next-ranked: %d\n", st.Fallbacks)
	fmt.Printf("quarantine transitions:   %d\n", st.Quarantines)
	fmt.Printf("probe re-admissions:      %d\n", st.Readmissions)

	var idxs []int
	for idx := range st.PerVersion {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	fmt.Println("\nper-version completions / failures:")
	for _, idx := range idxs {
		fmt.Printf("  version %d: %4d ok, %3d failed\n", idx, st.PerVersion[idx], st.PerVersionFailures[idx])
	}

	fmt.Println("\nfinal health state:")
	health := rt.Health()
	idxs = idxs[:0]
	for idx := range health {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		h := health[idx]
		state := "healthy"
		if h.Quarantined {
			state = fmt.Sprintf("quarantined (probe in %d invocations)", h.ProbeIn)
		}
		fmt.Printf("  version %d: %s, failure streak %d\n", idx, state, h.ConsecutiveFailures)
	}

	if callerErrors == 0 {
		fmt.Println("\nthe fault-tolerant runtime absorbed every failure — zero errors reached the caller")
	}
}
