package driver

import (
	"testing"

	"autotune/internal/israce"
	"autotune/internal/multiversion"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// emitFixture is a prepared mm problem and a synthetic 12-point front
// over its space (tiled, untiled and collapsed shapes alike): what
// EmitUnit is handed after a search.
func emitFixture(tb testing.TB) (*prepared, *optimizer.Result) {
	tb.Helper()
	p, err := prepareKernel("mm", fastOpts())
	if err != nil {
		tb.Fatal(err)
	}
	res := &optimizer.Result{}
	for i := int64(0); i < 12; i++ {
		cfg := skeleton.Config{1 + 37*i%300, 1 + 53*i%300, 1 + 11*i%300, 1 + i%8}
		if !p.region.Skeleton.Space.In(cfg) {
			tb.Fatalf("fixture configuration %v outside the mm space", cfg)
		}
		res.Front = append(res.Front, pareto.Point{Payload: cfg, Objectives: []float64{float64(12 - i), float64(i)}})
	}
	return p, res
}

func emit(tb testing.TB, p *prepared, res *optimizer.Result) *multiversion.Unit {
	unit, err := EmitUnit(p.kernel, p.prog, p.region, res, []string{"time", "resources"}, p.n)
	if err != nil {
		tb.Fatal(err)
	}
	return unit
}

// TestEmitUnitLeavesProgramUntouched: every version is transformed
// from a private copy of the spine it rewrites — the caller's program
// and the other versions' listings do not change as versions are
// emitted.
func TestEmitUnitLeavesProgramUntouched(t *testing.T) {
	p, res := emitFixture(t)
	before := p.prog.String()
	unit := emit(t, p, res)
	if p.prog.String() != before {
		t.Fatal("EmitUnit modified the program it was given")
	}
	if len(unit.Versions) != 12 {
		t.Fatalf("%d versions, want 12", len(unit.Versions))
	}
	again := emit(t, p, res)
	for i := range unit.Versions {
		if unit.Versions[i].Code != again.Versions[i].Code {
			t.Fatalf("version %d differs between two emissions of the same front", i)
		}
	}
}

func TestEmitUnitAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p, res := emitFixture(t)
	perUnit := testing.AllocsPerRun(20, func() { emit(t, p, res) })
	// Feature extraction, outlining and the unit's slabs are paid once:
	// the front's sorted copy, the configurations, the instances, the
	// transform's headers, nodes, loops and caps with the tile
	// iterators, the metadata's int64 and float64 slabs, the listings'
	// builder and the version list. A version adds its Entry and
	// nothing else. Before emission cloned once and printed without fmt
	// the same front cost 4004; cloning the whole program per version
	// cost 1124; copying only the spine cost 354; building each version
	// from plain data cost 236; building them all from unit-sized slabs
	// costs 43.
	if budget := 43.0; perUnit > budget {
		t.Errorf("EmitUnit of a 12-point mm front allocates %v times, budget %v", perUnit, budget)
	}
	// A 12-point front may cost at most 12 + 2 more than a 1-point one:
	// one Entry per version, and the caps slab and the tile iterators,
	// which an untiled point (the fixture's first) needs none of.
	one := *res
	one.Front = res.Front[:1]
	perPoint := testing.AllocsPerRun(20, func() { emit(t, p, &one) })
	if perUnit > perPoint+12+2 {
		t.Errorf("EmitUnit of a 12-point front allocates %v times, of a 1-point front %v: more than 12 + 2 apart", perUnit, perPoint)
	}
}

func BenchmarkEmitUnit(b *testing.B) {
	p, res := emitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, p, res)
	}
}
