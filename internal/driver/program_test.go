package driver

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"autotune/internal/ir"
	"autotune/internal/irparse"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/perfmodel"
	"autotune/internal/testenv"
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

// triangularSrc is a nest whose inner bound depends on the outer
// iterator, which the model derivation refuses.
const triangularSrc = `
program tri
array A[32][32] elem 8
for i = 0..32 {
  for j = 0..i {
    A[i][j] = f(A[i][j]) flops 1
  }
}
`

// TestDerivedModelsPinned holds the seven functions of the model
// derived for every region of jointProgramSrc and of each built-in
// kernel's IR at two sizes, over a grid of tiles and capacities, at
// full precision, byte-identical to testdata/derived_models.json. A
// region the derivation refuses (triangularSrc) is pinned as an error. -update
// regenerates it.
func TestDerivedModelsPinned(t *testing.T) {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	tileValues := []int64{1, 6, 32, 1000}
	capacities := []int64{0, 4 << 10, 32 << 10, 256 << 10, 12 << 20, 1 << 40}
	// A point is one line: tiles, WorkingSet, ParIters, InnerTrip and
	// LevelTraffic at each of capacities.
	type model struct {
		Error     bool     `json:"error,omitempty"`
		TileDims  int      `json:"tile_dims,omitempty"`
		Flops     string   `json:"flops,omitempty"`
		Accesses  string   `json:"accesses,omitempty"`
		TotalData int64    `json:"total_data,omitempty"`
		Points    []string `json:"points,omitempty"`
	}
	models := map[string]model{}
	opt := Options{Machine: machine.Westmere()}
	derive := func(id string, prog *ir.Program, n int64) {
		regions, err := analyzeProgram(prog, opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for i, region := range regions {
			id := fmt.Sprintf("%s/region%d", id, i)
			p, err := prepareRegion(prog, region, region.Skeleton.Name, opt)
			if err != nil {
				models[id] = model{Error: true}
				continue
			}
			km := p.kernel.Model
			m := model{TileDims: km.TileDims, Flops: num(km.Flops(n)), Accesses: num(km.Accesses(n)), TotalData: km.TotalData(n)}
			tiles := make([]int64, km.TileDims)
			var walk func(d int)
			walk = func(d int) {
				if d == len(tiles) {
					pt := fmt.Sprintf("tiles %v working_set %d par_iters %d inner_trip %s level_traffic",
						tiles, km.WorkingSet(n, tiles), km.ParIters(n, tiles), num(km.InnerTrip(n, tiles)))
					for _, c := range capacities {
						pt += " " + num(km.LevelTraffic(n, tiles, perfmodel.Capacity{PerThread: c, Total: c, Sharers: 1}))
					}
					m.Points = append(m.Points, pt)
					return
				}
				for _, v := range tileValues {
					tiles[d] = v
					walk(d + 1)
				}
			}
			walk(0)
			models[id] = m
		}
	}
	for id, src := range map[string]string{"program": jointProgramSrc, "triangular": triangularSrc} {
		prog, err := irparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		derive(id, prog, 1)
	}
	for _, k := range kernels.All() {
		for _, n := range []int64{24, 64} {
			derive(fmt.Sprintf("%s/n%d", k.Name, n), k.IR(n), n)
		}
	}
	got, err := json.MarshalIndent(map[string]any{"capacities": capacities, "models": models}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, "testdata/derived_models.json", append(got, '\n'))
}
