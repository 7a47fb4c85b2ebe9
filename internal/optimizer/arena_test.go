package optimizer

import (
	"encoding/json"
	"slices"
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
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

// TestArchivedPointsOutliveTheirGeneration: a point the archive kept
// reads the same however many generations later. The island offers the
// archive trials that the following generations overwrite, so what the
// archive keeps must be a copy: a point that kept a cut of the trials
// would read a later generation's offspring. The archive's points are
// deep-copied after every generation and compared, point for point,
// after five more.
func TestArchivedPointsOutliveTheirGeneration(t *testing.T) {
	space := benchSpace()
	opt := Options{Seed: 9, Stagnation: 1 << 30}.withDefaults()
	islands := map[string]islandEvolver{
		"rs-gde3": newGDEIsland(space, newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed)),
		"nsga2":   newNSGA2Island(space, newTableEvaluator(2), opt, opt.Seed),
	}
	type kept struct {
		points []pareto.Point
		copies []pareto.Point
	}
	deepCopy := func(points []pareto.Point) []pareto.Point {
		out := make([]pareto.Point, len(points))
		for i, p := range points {
			cfg, ok := p.Payload.(skeleton.Config)
			if !ok {
				t.Fatalf("archived payload %T, want skeleton.Config", p.Payload)
			}
			out[i] = pareto.Point{Payload: cfg.Clone(), Objectives: slices.Clone(p.Objectives)}
		}
		return out
	}
	const later = 5
	for name, isl := range islands {
		t.Run(name, func(t *testing.T) {
			var history []kept
			for gen := 0; gen < 30; gen++ {
				points := isl.points()
				history = append(history, kept{points, deepCopy(points)})
				isl.step()
				if gen < later {
					continue
				}
				h := history[gen-later]
				for i, p := range h.points {
					was := h.copies[i]
					if !slices.Equal(p.Payload.(skeleton.Config), was.Payload.(skeleton.Config)) || !slices.Equal(p.Objectives, was.Objectives) {
						t.Fatalf("generation %d: a point archived before generation %d reads %v %v, was %v %v",
							gen, gen-later, p.Payload, p.Objectives, was.Payload, was.Objectives)
					}
				}
			}
		})
	}
}
