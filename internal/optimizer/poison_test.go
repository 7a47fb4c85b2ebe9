//go:build poison

package optimizer

import (
	"math"
	"testing"

	"autotune/internal/stats"
)

// TestPoisonOverwritesReleasedMemory: under the poison tag, a finished
// generation leaves its offspring and the previous population's member
// slab holding math.MinInt64 only, while the population reads its own
// copies, inside the space. Without this the poison CI step would test
// nothing.
func TestPoisonOverwritesReleasedMemory(t *testing.T) {
	space := benchSpace()
	opt := Options{Seed: 2, Stagnation: 1 << 30}.withDefaults()
	gde := newGDEIsland(space, newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed))
	nsga := newNSGA2Island(space, newTableEvaluator(2), opt, opt.Seed)
	for name, c := range map[string]struct {
		step func()
		p    *population
	}{
		"rs-gde3": {gde.step, &gde.population},
		"nsga2":   {nsga.step, &nsga.population},
	} {
		for gen := 0; gen < 3; gen++ {
			c.step()
			ar := &c.p.arena
			for what, released := range map[string][]int64{"offspring": ar.slab, "spare member slab": ar.members[1]} {
				if gen > 0 && len(released) == 0 {
					t.Fatalf("%s generation %d: the %s is empty", name, gen, what)
				}
				for _, v := range released {
					if v != math.MinInt64 {
						t.Fatalf("%s generation %d: the %s holds %d after the generation, want math.MinInt64", name, gen, what, v)
					}
				}
			}
			for _, ind := range c.p.pop {
				if !space.In(ind.cfg) {
					t.Fatalf("%s generation %d: member %v lies outside the space", name, gen, ind.cfg)
				}
			}
		}
	}
}
