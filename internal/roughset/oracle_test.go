// Differential oracle tests: on spaces tiny enough to enumerate, the
// rough-set reduction must never wall off a configuration the
// brute-force path proves Pareto-optimal. A reduction that clipped a
// true optimum would silently bound RS-GDE3 away from the answer.
package roughset_test

import (
	"math/rand"
	"testing"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/roughset"
	"autotune/internal/skeleton"
)

// tinySpace is a 2-D space small enough for exhaustive enumeration.
func tinySpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "a", Kind: skeleton.TileSize, Min: 1, Max: 6},
		{Name: "b", Kind: skeleton.ThreadCount, Min: 1, Max: 5},
	}}
}

// fullGrid enumerates every configuration of a space.
func fullGrid(space skeleton.Space) optimizer.Grid {
	grid := make(optimizer.Grid, space.Dim())
	for d, p := range space.Params {
		for v := p.Min; v <= p.Max; v++ {
			grid[d] = append(grid[d], v)
		}
	}
	return grid
}

// tableEvaluator builds a deterministic evaluator whose objective
// vectors are drawn per-configuration from a seeded table — an
// arbitrary, reproducible landscape with no structure the reduction
// could exploit.
func tableEvaluator(space skeleton.Space, seed int64) objective.EvalFunc {
	rng := rand.New(rand.NewSource(seed))
	table := map[string][]float64{}
	var rec func(cfg skeleton.Config, d int)
	rec = func(cfg skeleton.Config, d int) {
		if d == space.Dim() {
			table[cfg.Key()] = []float64{rng.Float64(), rng.Float64()}
			return
		}
		p := space.Params[d]
		for v := p.Min; v <= p.Max; v++ {
			rec(append(cfg, v), d+1)
		}
	}
	rec(skeleton.Config{}, 0)
	return func(cfg skeleton.Config) []float64 {
		objs, ok := table[cfg.Key()]
		if !ok {
			return nil
		}
		return append([]float64(nil), objs...)
	}
}

// TestReduceKeepsBruteForceOptima enumerates tiny random landscapes,
// finds the exact Pareto set via the brute-force path, and asserts the
// rough-set box computed from the full population still contains every
// optimum.
func TestReduceKeepsBruteForceOptima(t *testing.T) {
	space := tinySpace()
	grid := fullGrid(space)
	for seed := int64(1); seed <= 25; seed++ {
		fn := tableEvaluator(space, seed)
		eval := objective.NewCachingEvaluator([]string{"f1", "f2"}, 4, fn)
		oracle, err := optimizer.Run(space, eval, optimizer.Spec{Strategy: "brute-force", Config: optimizer.StrategyConfig{Grid: grid}}, optimizer.Control{})
		if err != nil {
			t.Fatal(err)
		}

		// The population is the full space; split and reduce.
		var cfgs []skeleton.Config
		var cur skeleton.Config
		var rec func(d int)
		rec = func(d int) {
			if d == space.Dim() {
				cfgs = append(cfgs, cur.Clone())
				return
			}
			p := space.Params[d]
			for v := p.Min; v <= p.Max; v++ {
				cur = append(cur, v)
				rec(d + 1)
				cur = cur[:len(cur)-1]
			}
		}
		rec(0)
		objs := make([][]float64, len(cfgs))
		for i, c := range cfgs {
			objs[i] = fn(c)
		}
		nonDom, dom := roughset.Split(cfgs, objs, pareto.Dominates)
		box := roughset.Reduce(space, nonDom, dom)

		for _, p := range oracle.Front {
			cfg := p.Payload.(skeleton.Config)
			if !roughset.InBox(box, cfg) {
				t.Fatalf("seed %d: reduced box [%v, %v] excludes brute-force optimum %v (objs %v)",
					seed, box.Lo, box.Hi, cfg, p.Objectives)
			}
		}
	}
}

// TestReduceKeepsPopulationNonDominated is the documented contract for
// arbitrary (sub)populations: whatever subset of the space a generation
// holds, the reduced box must contain that subset's non-dominated
// members.
func TestReduceKeepsPopulationNonDominated(t *testing.T) {
	space := tinySpace()
	for seed := int64(1); seed <= 25; seed++ {
		fn := tableEvaluator(space, 1000+seed)
		rng := rand.New(rand.NewSource(seed))
		var cfgs []skeleton.Config
		for i := 0; i < 12; i++ {
			cfgs = append(cfgs, space.Random(rng))
		}
		objs := make([][]float64, len(cfgs))
		for i, c := range cfgs {
			objs[i] = fn(c)
		}
		nonDom, dom := roughset.Split(cfgs, objs, pareto.Dominates)
		box := roughset.Reduce(space, nonDom, dom)
		for _, c := range nonDom {
			if !roughset.InBox(box, c) {
				t.Fatalf("seed %d: reduced box [%v, %v] excludes non-dominated member %v",
					seed, box.Lo, box.Hi, c)
			}
		}
	}
}
