package optimizer

import (
	"encoding/json"
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/stats"
)

// TestNothingThatEscapesAliasesTheArena: what leaves a generation —
// snapshots, migrants, archive points — must stay what it was while the
// island keeps stepping, swapping population buffers and reusing its
// arena. Every such value taken after generation g is held, with a
// serialized copy, across generation g+1 (and a migration into the
// island) and compared again.
func TestNothingThatEscapesAliasesTheArena(t *testing.T) {
	space := benchSpace()
	opt := Options{Seed: 5, Stagnation: 1 << 30}.withDefaults()
	nopt := Options{Seed: 5, Stagnation: 1 << 30}.withDefaults()
	islands := map[string]islandEvolver{
		"rs-gde3": newGDEIsland(space, newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed)),
		"nsga2":   newNSGA2Island(space, newTableEvaluator(2), nopt, nopt.Seed),
		"motpe":   newMOTPEIsland(space, newTableEvaluator(2), opt, opt.Seed),
	}
	donor := newGDEIsland(space, newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed+1))

	type held struct {
		snap   IslandState
		elites []individual
		points []pareto.Point
	}
	type plainIndividual struct {
		Cfg  []int64
		Objs []float64
	}
	freeze := func(h held) string {
		var elites []plainIndividual
		for _, e := range h.elites {
			elites = append(elites, plainIndividual{e.cfg, e.objs})
		}
		data, err := json.Marshal([]interface{}{h.snap, elites, h.points})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for name, isl := range islands {
		t.Run(name, func(t *testing.T) {
			for gen := 0; gen < 50; gen++ {
				h := held{snap: isl.snapshot(), elites: isl.elites(3), points: isl.points()}
				want := freeze(h)
				isl.step()
				donor.step()
				isl.inject(donor.elites(2))
				if got := freeze(h); got != want {
					t.Fatalf("generation %d: a value taken before the step changed under it:\n%s\nwas\n%s", gen, got, want)
				}
				if len(h.elites) == 0 || len(h.points) == 0 || len(h.snap.Pop) == 0 {
					t.Fatalf("generation %d: nothing held (elites %d, points %d, population %d)",
						gen, len(h.elites), len(h.points), len(h.snap.Pop))
				}
			}
		})
	}
}
