package driver

import (
	"strings"
	"testing"

	"autotune/internal/irparse"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
)

const customSrc = `
program axpyish
array X[4096][64] elem 8
array Y[4096][64] elem 8
for i = 0..4096 {
  for j = 0..64 {
    Y[i][j] = f(Y[i][j], X[i][j]) flops 2
  }
}
`

func TestTuneProgramFromSource(t *testing.T) {
	prog, err := irparse.Parse(customSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := TuneProgram(prog, Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 10, Seed: 1, MaxIterations: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("no versions")
	}
	for _, v := range out.Unit.Versions {
		if len(v.Meta.Tiles) != 2 {
			t.Fatalf("tiles = %v", v.Meta.Tiles)
		}
		if v.Entry != nil {
			t.Fatal("parsed programs must not carry executable entries")
		}
		if !strings.Contains(v.Code, "#pragma omp parallel for") {
			t.Fatal("version listing not parallelized")
		}
	}
	if out.Unit.Features["nestDepth"] != 2 {
		t.Fatalf("features = %v", out.Unit.Features)
	}
}

func TestTuneProgramWithUnroll(t *testing.T) {
	prog, err := irparse.Parse(customSrc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := TuneProgram(prog, Options{
		Machine:   machine.Westmere(),
		UnrollDim: true,
		Optimizer: optimizer.Options{PopSize: 10, Seed: 2, MaxIterations: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Unit.Versions {
		if v.Meta.Unroll < 1 {
			t.Fatalf("unroll = %d", v.Meta.Unroll)
		}
	}
}

func TestTuneProgramValidation(t *testing.T) {
	if _, err := TuneProgram(nil, Options{Machine: machine.Westmere()}); err == nil {
		t.Error("nil program accepted")
	}
	prog, _ := irparse.Parse(customSrc)
	if _, err := TuneProgram(prog, Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := TuneProgram(prog, Options{Machine: machine.Westmere(), Measured: true}); err == nil {
		t.Error("measured program tuning accepted")
	}
}

const twoRegionSrc = `
program pipeline
array A[512][512] elem 8
array B[512][512] elem 8
array C[512][512] elem 8
for i = 0..512 {
  for j = 0..512 {
    B[i][j] = f(A[i][j], A[j][i]) flops 2
  }
}
for p = 0..512 {
  for q = 0..512 {
    C[p][q] = f(B[p][q], B[p][q]) flops 1
  }
}
`

func TestTuneProgramAllRegions(t *testing.T) {
	prog, err := irparse.Parse(twoRegionSrc)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := TuneProgramAll(prog, Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 10, Seed: 4, MaxIterations: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 2 {
		t.Fatalf("regions = %d", len(multi))
	}
	for i, out := range multi {
		if len(out.Unit.Versions) == 0 {
			t.Fatalf("region %d: empty unit", i)
		}
		if out.Result.Evaluations != multi[0].Result.Evaluations {
			t.Fatalf("region %d: E not shared", i)
		}
	}
	if multi[0].Unit.Region == multi[1].Unit.Region {
		t.Fatal("region names must differ")
	}
}

func TestTuneProgramAllValidation(t *testing.T) {
	if _, err := TuneProgramAll(nil, Options{Machine: machine.Westmere()}); err == nil {
		t.Error("nil program accepted")
	}
	prog, _ := irparse.Parse(twoRegionSrc)
	if _, err := TuneProgramAll(prog, Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := TuneProgramAll(prog, Options{Machine: machine.Westmere(), Measured: true}); err == nil {
		t.Error("measured accepted")
	}
}

// The second region's emitted code must show the second nest — the
// outlining regression guard.
func TestTuneProgramAllEmitsCorrectRegions(t *testing.T) {
	prog, err := irparse.Parse(twoRegionSrc)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := TuneProgramAll(prog, Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 8, Seed: 5, MaxIterations: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	code0 := multi[0].Unit.Versions[0].Code
	code1 := multi[1].Unit.Versions[0].Code
	if !strings.Contains(code0, "B[i][j]") {
		t.Errorf("region 0 code shows wrong nest:\n%s", code0)
	}
	if !strings.Contains(code1, "C[p][q]") {
		t.Errorf("region 1 code shows wrong nest:\n%s", code1)
	}
	if strings.Contains(code1, "B[i][j] =") {
		t.Errorf("region 1 code contains region 0's statement")
	}
}
