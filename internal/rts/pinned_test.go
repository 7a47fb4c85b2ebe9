package rts

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"autotune/internal/driver"
	"autotune/internal/machine"
	"autotune/internal/multiversion"
	"autotune/internal/optimizer"
	"autotune/internal/testenv"
)

// pinCores are the core budgets every ranking is taken under; 0 is
// unrestricted.
var pinCores = []int{0, 1, 4, 10, 16}

// pinUnit pairs a unit with the name its pinned entries carry.
type pinUnit struct {
	name string
	u    *multiversion.Unit
}

// table builds an unbound unit from rows of (threads, objectives...).
func table(names []string, rows ...[]float64) *multiversion.Unit {
	u := &multiversion.Unit{Region: "pin", ObjectiveNames: names}
	for _, r := range rows {
		u.Versions = append(u.Versions, multiversion.Version{Meta: multiversion.Meta{
			Threads: int(r[0]), Objectives: append([]float64(nil), r[1:]...)}})
	}
	return u
}

// pinUnits are the units the pin ranks: hand-built tables for the edge
// cases, then the units the driver emits for mm and dsyrk on both
// machines at seed 1.
func pinUnits(t *testing.T) []pinUnit {
	t.Helper()
	two := []string{"time", "resources"}
	units := []pinUnit{
		{"three", table(two, []float64{1, 1.0, 1.0}, []float64{10, 0.12, 1.2}, []float64{40, 0.04, 1.6})},
		// (time, resources, threads) v0 = (1, 5, 8), v1 = (2, 10, 2),
		// v2 = (3, 4, 2): under budget 5 on 4 cores only v2 fits both.
		{"budget-cap", table(two, []float64{8, 1, 5}, []float64{2, 2, 10}, []float64{2, 3, 4})},
		// (20, 10) is dominated by (0, 10), yet it moves the normalised
		// weighted choice.
		{"dominated", table(two, []float64{1, 0, 10}, []float64{4, 10, 0}, []float64{16, 20, 10})},
		{"ties", table(two, []float64{4, 1, 2}, []float64{2, 1, 2}, []float64{8, 2, 1}, []float64{1, 2, 1}, []float64{16, 1, 2})},
		{"constant", table(two, []float64{1, 3, 5}, []float64{4, 2, 5}, []float64{16, 1, 5})},
		{"three-objectives", table([]string{"time", "resources", "energy"},
			[]float64{1, 4, 1, 2}, []float64{2, 3, 2, 2}, []float64{4, 2, 3, 1}, []float64{10, 1, 5, 3}, []float64{16, 1, 6, 4})},
	}
	for _, k := range []string{"mm", "dsyrk"} {
		for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
			out, err := driver.TuneKernel(k, driver.Options{Machine: m, NoiseAmp: 0.01, Optimizer: optimizer.Options{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, pinUnit{k + "/" + m.Name, out.Unit})
		}
	}
	return units
}

// showRanking prints a ranking, or "error": an error is pinned as its
// presence, not its text.
func showRanking(order []int, err error) string {
	if err != nil {
		return "error"
	}
	return fmt.Sprint(order)
}

// weightGrid is every weight vector with components in {0, 0.25, 1},
// plus one of the wrong length and one negative.
func weightGrid(m int) [][]float64 {
	grid := [][]float64{{}}
	for c := 0; c < m; c++ {
		var next [][]float64
		for _, w := range grid {
			for _, x := range []float64{0, 0.25, 1} {
				next = append(next, append(append([]float64(nil), w...), x))
			}
		}
		grid = next
	}
	neg := make([]float64, m)
	neg[0] = -1
	return append(grid, make([]float64, m+1), neg)
}

// budgets are below, at the edges of, inside and above the range of
// the constrained objective.
func budgets(u *multiversion.Unit, c int) []float64 {
	lo, hi := u.Versions[0].Meta.Objectives[c], u.Versions[0].Meta.Objectives[c]
	for _, v := range u.Versions {
		lo, hi = min(lo, v.Meta.Objectives[c]), max(hi, v.Meta.Objectives[c])
	}
	return []float64{lo - 1, lo, (lo + hi) / 2, hi, hi + 1}
}

// observe feeds an Adaptive policy fixed measurements: every other
// version is measured, in reverse order of index, and version 0 past
// its window.
func observe(a *Adaptive, n int) {
	for i := 0; i < n; i += 2 {
		for _, f := range []float64{1, 3, 2} {
			a.Observe(i, float64(n-i)*0.01*f)
		}
	}
	for k := 0; k < 10; k++ {
		a.Observe(0, 0.5+0.1*float64(k))
	}
}

// pinRankings ranks every unit under every built-in policy and core
// budget.
func pinRankings(units []pinUnit) map[string]string {
	out := map[string]string{}
	rank := func(key string, p Policy, u *multiversion.Unit) {
		for _, c := range pinCores {
			out[fmt.Sprintf("%s/cores%d", key, c)] = showRanking(rankVersions(p, u, Context{AvailableCores: c}))
		}
	}
	for _, pu := range units {
		u, m := pu.u, len(pu.u.ObjectiveNames)
		for _, w := range weightGrid(m) {
			rank(fmt.Sprintf("%s/weighted%v", pu.name, w), WeightedSum{Weights: w}, u)
		}
		for opt := 0; opt < m; opt++ {
			for con := 0; con < m; con++ {
				if con == opt {
					continue
				}
				for _, b := range budgets(u, con) {
					rank(fmt.Sprintf("%s/budget(%d,%d,%g)", pu.name, opt, con, b), FastestWithinBudget{Optimize: opt, Constrain: con, Budget: b}, u)
				}
			}
		}
		rank(pu.name+"/budget(bad-objective)", FastestWithinBudget{Optimize: 0, Constrain: m, Budget: 1}, u)
		for _, idx := range []int{-1, 0, len(u.Versions) - 1, len(u.Versions)} {
			rank(fmt.Sprintf("%s/fixed%d", pu.name, idx), Fixed{Index: idx}, u)
		}
		for _, eps := range []float64{0, 1} {
			for _, measured := range []bool{false, true} {
				a := &Adaptive{Epsilon: eps, Seed: 1}
				if measured {
					observe(a, len(u.Versions))
				}
				for call := 0; call < 2; call++ {
					rank(fmt.Sprintf("%s/adaptive(eps%g,measured=%v)/call%d", pu.name, eps, measured, call), a, u)
				}
			}
		}
	}
	return out
}

// tracePin is what a run of invocations leaves visible.
type tracePin struct {
	// Executed has one field per invocation: the executed index, q for
	// ErrAllQuarantined, x for any other error.
	Executed string                `json:"executed"`
	Stats    InvocationStats       `json:"stats"`
	Health   map[int]VersionHealth `json:"health"`
	Events   []string              `json:"events"`
}

// bound copies u with no-op entries bound, under a region name.
func bound(u *multiversion.Unit, region string) *multiversion.Unit {
	cp := *u
	cp.Region = region
	cp.Versions = append([]multiversion.Version(nil), u.Versions...)
	for i := range cp.Versions {
		cp.Versions[i].Entry = func() error { return nil }
	}
	return &cp
}

// faulty builds a runtime with a seeded fault injector and a circuit
// breaker short enough that quarantine and readmission both happen.
func faulty(t *testing.T, u *multiversion.Unit, p Policy, seed int64, events *[]string) *Runtime {
	t.Helper()
	rt, err := New(u, p)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetHealthConfig(HealthConfig{FailureThreshold: 2, Cooldown: 4})
	rt.SetFaultInjector(&FaultInjector{ErrorRate: 0.35, Seed: seed})
	rt.SetEventHook(func(e Event) {
		*events = append(*events, fmt.Sprintf("%s v%d a%d", e.Type, e.Version, e.Attempt))
	})
	return rt
}

// step appends one invocation's outcome to executed.
func step(executed *strings.Builder, idx int, err error) {
	if executed.Len() > 0 {
		executed.WriteByte(' ')
	}
	switch {
	case errors.Is(err, ErrAllQuarantined):
		executed.WriteByte('q')
	case err != nil:
		executed.WriteByte('x')
	default:
		fmt.Fprint(executed, idx)
	}
}

// pinTraces runs every built-in policy through 120 faulty invocations
// on the three-version table and on mm/Westmere, with the core budget
// cut to 12 for the middle stretch.
func pinTraces(t *testing.T, units []pinUnit) map[string]tracePin {
	out := map[string]tracePin{}
	for _, pu := range []pinUnit{units[0], units[6]} {
		policies := []struct {
			name string
			p    func() Policy
			// observe feeds each executed version a fixed measurement.
			observe bool
		}{
			{"weighted[1 0]", func() Policy { return WeightedSum{Weights: []float64{1, 0}} }, false},
			{"weighted[0.5 0.5]", func() Policy { return WeightedSum{Weights: []float64{0.5, 0.5}} }, false},
			{"budget(0,1,mid)", func() Policy {
				return FastestWithinBudget{Optimize: 0, Constrain: 1, Budget: budgets(pu.u, 1)[2]}
			}, false},
			{"fixed1", func() Policy { return Fixed{Index: 1} }, false},
			{"adaptive(eps0,observed)", func() Policy { return &Adaptive{Epsilon: 0, Seed: 3} }, true},
			{"adaptive(eps1)", func() Policy { return &Adaptive{Epsilon: 1, Seed: 5} }, false},
		}
		for k, pol := range policies {
			var events []string
			p := pol.p()
			rt := faulty(t, bound(pu.u, pu.name), p, int64(11+k), &events)
			var executed strings.Builder
			for i := 0; i < 120; i++ {
				switch i {
				case 60:
					rt.SetContext(Context{AvailableCores: 12})
				case 90:
					rt.SetContext(Context{})
				}
				idx, err := rt.Invoke()
				step(&executed, idx, err)
				if pol.observe && err == nil {
					p.(*Adaptive).Observe(idx, 0.01*float64(idx+1)*float64(1+i%3))
				}
			}
			out[pu.name+"/"+pol.name] = tracePin{Executed: executed.String(), Stats: rt.Stats(), Health: rt.Health(), Events: events}
		}
	}
	return out
}

// policyPin is the content of testdata/policies.json.
type policyPin struct {
	Rankings map[string]string   `json:"rankings"`
	Traces   map[string]tracePin `json:"traces"`
}

// TestPolicyChoicesPinned holds what the runtime chooses — the ranking
// of every built-in policy over hand-built and tuned units, weight
// grids, budgets and core budgets, and the Invoke trace of each policy
// under seeded faults — byte-identical to testdata/policies.json, at GOMAXPROCS 1 and 4.
// -update regenerates it.
func TestPolicyChoicesPinned(t *testing.T) {
	const path = "testdata/policies.json"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			units := pinUnits(t)
			data, err := json.MarshalIndent(policyPin{
				Rankings: pinRankings(units),
				Traces:   pinTraces(t, units),
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			testenv.Pin(t, path, append(data, '\n'))
		})
	}
}
