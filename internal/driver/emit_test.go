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
	// Feature extraction and outlining are paid once. A version copies
	// the spine of the 3-deep nest and builds its tile and point loops
	// (13 allocations; statements, arrays and bounds are shared with
	// the program), plus its metadata and one listing. Before emission
	// cloned once and printed without fmt the same front cost 4004;
	// cloning the whole program per version cost 1124; copying only
	// the spine cost 354; building each version from plain data —
	// expressions as sorted terms, an instance without step closures —
	// costs 236.
	if budget := 250.0; perUnit > budget {
		t.Errorf("EmitUnit of a 12-point mm front allocates %v times, budget %v", perUnit, budget)
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
