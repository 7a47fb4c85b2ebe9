package skeleton

import (
	"strings"
	"testing"

	"autotune/internal/ir"
)

func TestTiledParallelUnrollSkeleton(t *testing.T) {
	sk := TiledParallelUnroll("mm3du", 3, 700, 40, true, 8)
	if sk.Space.Dim() != 5 {
		t.Fatalf("dim = %d, want 5", sk.Space.Dim())
	}
	last := sk.Space.Params[4]
	if last.Kind != UnrollFactor || last.Min != 1 || last.Max != 8 {
		t.Fatalf("unroll param = %+v", last)
	}
	p := mmProgram(64)
	out, inst, err := applyOne(sk, p, Config{16, 16, 16, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Unroll != 4 || inst.Threads != 4 {
		t.Fatalf("instance = %+v", inst)
	}
	loops, _ := ir.PerfectNest(out.Root[0])
	inner := loops[len(loops)-1]
	if inner.UnrollPragma != 4 {
		t.Fatalf("inner unroll pragma = %d", inner.UnrollPragma)
	}
	if !strings.Contains(out.String(), "#pragma unroll(4)") {
		t.Errorf("pragma missing in listing:\n%s", out.String())
	}
	// Factor 1 leaves no annotation.
	out1, _, err := applyOne(sk, p, Config{16, 16, 16, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out1.String(), "#pragma unroll") {
		t.Error("factor 1 should not annotate")
	}
	// Wrong arity rejected.
	if _, _, err := applyOne(sk, p, Config{16, 16, 16, 4}); err == nil {
		t.Error("missing unroll param accepted")
	}
}
