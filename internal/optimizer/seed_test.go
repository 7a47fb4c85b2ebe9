package optimizer

import (
	"slices"
	"testing"

	"autotune/internal/israce"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

func TestSeededPopulation(t *testing.T) {
	space := schafferSpace()
	rng := stats.NewRand(1)
	seeds := []skeleton.Config{
		{100, 0},
		{9999, 5}, // out of bounds: clamped
		{1, 2, 3}, // wrong dimensionality: replaced by a random draw
	}
	cfgs := seededPopulation(space, seeds, 6, rng)
	if len(cfgs) != 6 {
		t.Fatalf("population size = %d", len(cfgs))
	}
	if !slices.Equal(cfgs[0], skeleton.Config{100, 0}) {
		t.Fatalf("seed not placed first: %v", cfgs[0])
	}
	if cfgs[1][0] != 1000 {
		t.Fatalf("out-of-bounds seed not clamped: %v", cfgs[1])
	}
	for i, c := range cfgs {
		if !space.In(c) {
			t.Fatalf("member %d outside space: %v", i, c)
		}
	}
	// More seeds than popSize: truncated, never overflowing.
	many := make([]skeleton.Config, 10)
	for i := range many {
		many[i] = skeleton.Config{int64(i), 0}
	}
	if got := seededPopulation(space, many, 4, rng); len(got) != 4 {
		t.Fatalf("oversized seed list produced %d members", len(got))
	}
}

// TestInitialPopulationSeeding: seeds passed through Options must be
// evaluated in generation 0 by every evolutionary method.
func TestInitialPopulationSeeding(t *testing.T) {
	seed := skeleton.Config{123, 7}
	runs := map[string]func(e *funcEvaluator) error{
		"gde3": func(e *funcEvaluator) error {
			_, err := search("gde3", schafferSpace(), e, Options{
				PopSize: 8, Seed: 3, MaxIterations: 2, Stagnation: 1,
				InitialPopulation: []skeleton.Config{seed},
			})
			return err
		},
		"rs-gde3": func(e *funcEvaluator) error {
			_, err := search("rs-gde3", schafferSpace(), e, Options{
				PopSize: 8, Seed: 3, MaxIterations: 2, Stagnation: 1,
				InitialPopulation: []skeleton.Config{seed},
			})
			return err
		},
		"nsga2": func(e *funcEvaluator) error {
			_, err := search("nsga2", schafferSpace(), e, Options{
				PopSize: 8, Seed: 3, MaxIterations: 2, Stagnation: 1,
				InitialPopulation: []skeleton.Config{seed},
			})
			return err
		},
	}
	for name, run := range runs {
		e := newFuncEvaluator(schaffer)
		if err := run(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e.mu.Lock()
		_, evaluated := e.seen[seed.Key()]
		e.mu.Unlock()
		if !evaluated {
			t.Fatalf("%s: seed configuration never evaluated", name)
		}
	}
}

// TestSeededPopulationAllocationBudget: the random draws of an initial
// population are capped cuts of one slab, so a population costs its
// list and its slab, and a warm-start seed its clamped copy; one
// allocation per draw before.
func TestSeededPopulationAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	space := schafferSpace()
	rng := stats.NewRand(1)
	seeds := []skeleton.Config{{100, 0}, {9999, 5}}
	for _, c := range []struct {
		seeds  []skeleton.Config
		budget float64
	}{{nil, 2}, {seeds, 2 + 2}} {
		got := testing.AllocsPerRun(50, func() { seededPopulation(space, c.seeds, 30, rng) })
		if got > c.budget {
			t.Errorf("seededPopulation of 30 with %d seeds allocates %v times, budget %v", len(c.seeds), got, c.budget)
		}
	}
	// The draws are capped: appending to one never writes the next.
	cfgs := seededPopulation(space, nil, 3, rng)
	next := slices.Clone(cfgs[1])
	_ = append(cfgs[0], -1)
	if !slices.Equal(cfgs[1], next) {
		t.Fatal("appending to a drawn configuration wrote the next one")
	}
}
