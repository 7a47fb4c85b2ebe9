package codegen

import (
	"strings"
	"testing"

	"autotune/internal/driver"
	"autotune/internal/ir"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/transform"
)

func balancedBraces(s string) bool {
	depth := 0
	for _, r := range s {
		switch r {
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

func TestEmitProgramMM(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	p := mm.IR(64)
	code, err := emitProgram(p, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"void kernel(",
		"double (* A)[64]",
		"double (* B)[64]",
		"double (* C)[64]",
		"long i, j, k;",
		"for (i = 0; i < 64; i++)",
		"C[i][j] += A[i][k] * B[k][j];",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("missing %q in:\n%s", want, code)
		}
	}
	if !balancedBraces(code) {
		t.Fatal("unbalanced braces")
	}
}

func TestEmitProgramTiledParallel(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	versions, _, err := transform.Apply(mm.IR(64), transform.Version{Tiles: []int64{16, 16, 8}, Collapse: 2})
	if err != nil {
		t.Fatal(err)
	}
	tiled := versions[0]
	code, err := emitProgram(tiled, "mm_tiled")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"void mm_tiled(",
		"#pragma omp parallel for collapse(2) schedule(static)",
		"for (i_t = 0; i_t < 64; i_t += 16)",
		"i < i_t + 16 && i < 64", // min() as chained condition
	} {
		if !strings.Contains(code, want) {
			t.Errorf("missing %q in:\n%s", want, code)
		}
	}
	if !balancedBraces(code) {
		t.Fatal("unbalanced braces")
	}
}

// TestEmitProgramNoOMP: a program without a parallel loop carries no
// OpenMP pragma; its parallelized form carries one.
func TestEmitProgramNoOMP(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	tiled, _ := transform.Tile(mm.IR(32), []int64{8, 8, 8})
	code, err := emitProgram(tiled, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(code, "#pragma") {
		t.Errorf("sequential program emitted a pragma:\n%s", code)
	}
	versions, _, _ := transform.Apply(tiled, transform.Version{Collapse: 1})
	parallel := versions[0]
	if code, err = emitProgram(parallel, "kernel"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "#pragma omp parallel for schedule(static)") {
		t.Errorf("parallel program emitted no pragma:\n%s", code)
	}
}

// TestEmitProgramRestrictAndElemType: every array parameter is a
// pointer to double rows, without a restrict qualifier — the emitted
// code promises nothing about aliasing that the IR does not state.
func TestEmitProgramRestrictAndElemType(t *testing.T) {
	mm, _ := kernels.ByName("mm")
	code, err := emitProgram(mm.IR(16), "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "void kernel(double (* A)[16], double (* B)[16], double (* C)[16])") {
		t.Errorf("parameters are not plain double arrays:\n%s", code)
	}
	if strings.Contains(code, "restrict") {
		t.Errorf("restrict emitted:\n%s", code)
	}
}

func TestEmitProgramStencilAveraging(t *testing.T) {
	j2, _ := kernels.ByName("jacobi-2d")
	code, err := emitProgram(j2.IR(32), "kernel")
	if err != nil {
		t.Fatal(err)
	}
	// Jacobi writes B from 5 reads of A: emitted as scaled sum.
	if !strings.Contains(code, "B[i][j] =") || !strings.Contains(code, "* (1.0 / 5)") {
		t.Errorf("stencil form missing:\n%s", code)
	}
}

func TestEmitProgramAccumulationForm(t *testing.T) {
	nb, _ := kernels.ByName("n-body")
	code, err := emitProgram(nb.IR(32), "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "F[i] +=") {
		t.Errorf("accumulation form missing:\n%s", code)
	}
}

func TestEmitProgramRejectsInvalid(t *testing.T) {
	bad := &ir.Program{Name: "bad", Root: []ir.Node{
		&ir.Stmt{Writes: []ir.Access{{Array: "Z", Indices: []ir.Affine{ir.Con(0)}}}},
	}}
	if _, err := emitProgram(bad, "kernel"); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestEmitUnitFullPipeline(t *testing.T) {
	out, err := driver.TuneKernel("mm", driver.Options{
		Machine:   machine.Westmere(),
		N:         64,
		Optimizer: optimizer.Options{PopSize: 10, Seed: 1, MaxIterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The output carries the transformed program of each version.
	code, err := EmitUnit(out.Unit, out.Programs, "mm")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"multi-versioned unit",
		"void mm_v0(",
		"static const double mm_objectives",
		"static const int mm_threads",
		"void mm_dispatch(int version,",
		"case 0: mm_v0(A, B, C); break;",
		"default: mm_v0(A, B, C); break;",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("missing %q", want)
		}
	}
	// One function per version.
	if got := strings.Count(code, "void mm_v"); got != len(out.Unit.Versions) {
		t.Errorf("emitted %d version functions for %d versions", got, len(out.Unit.Versions))
	}
	if !balancedBraces(code) {
		t.Fatal("unbalanced braces")
	}
}

func TestEmitUnitErrors(t *testing.T) {
	out, err := driver.TuneKernel("mm", driver.Options{
		Machine:   machine.Westmere(),
		N:         32,
		Optimizer: optimizer.Options{PopSize: 8, Seed: 2, MaxIterations: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EmitUnit(out.Unit, nil, ""); err == nil {
		t.Fatal("program/version count mismatch accepted")
	}
}

func TestParamNames(t *testing.T) {
	got := paramNames("double (* A)[64], double (* restrict B)[64], int n")
	want := []string{"A", "B", "n"}
	if len(got) != len(want) {
		t.Fatalf("paramNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paramNames = %v, want %v", got, want)
		}
	}
	if len(paramNames("")) != 0 {
		t.Fatal("empty params should yield none")
	}
}
