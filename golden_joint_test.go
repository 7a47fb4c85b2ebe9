package autotune

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

const goldenJointPath = "testdata/golden_joint.json"

// goldenJointRegion pins one region of one joint multi-region search:
// the SHA-256 of its export.FrontJSON bytes and of its Unit.Encode
// bytes, and the run's shared execution and iteration counts.
type goldenJointRegion struct {
	FrontSHA256 string `json:"front_sha256"`
	UnitSHA256  string `json:"unit_sha256"`
	Executions  int    `json:"executions"`
	Iterations  int    `json:"iterations"`
}

// jointProgramSrc is the parsed-program target of the joint golden
// cells: three tunable nests of two band depths.
const jointProgramSrc = `
program pipeline
array A[512][512] elem 8
array B[512][512] elem 8
array C[512][512] elem 8
array D[256][256] elem 8
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
for x = 0..256 {
  for y = 0..256 {
    for z = 0..256 {
      D[x][y] = f(D[x][y], A[x][z], B[z][y]) flops 2
    }
  }
}
`

func pinJointRegion(t *testing.T, id string, unit *Unit, front []Point, executions, iterations int) goldenJointRegion {
	t.Helper()
	enc, err := unit.Encode()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return goldenJointRegion{
		FrontSHA256: frontSHA256(t, id, front, unit.ObjectiveNames),
		UnitSHA256:  fmt.Sprintf("%x", sha256.Sum256(enc)),
		Executions:  executions,
		Iterations:  iterations,
	}
}

// computeGoldenJoint runs every joint cell on the current code: 2-, 3-
// and 5-kernel region sets through TuneAll and the three-region parsed
// program through TuneSourceAll, each on 2 machines × seeds 1–3 ×
// {rs-gde3, gde3} × noise {0, 0.01} × default and small optimizer
// options.
func computeGoldenJoint(t *testing.T) map[string]goldenJointRegion {
	t.Helper()
	sets := []struct {
		name    string
		kernels []string
	}{
		{"kernels2", []string{"mm", "jacobi-2d"}},
		{"kernels3", []string{"mm", "jacobi-2d", "n-body"}},
		{"kernels5", []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"}},
		{"program", nil},
	}
	out := map[string]goldenJointRegion{}
	for _, set := range sets {
		for _, m := range []string{"Westmere", "Barcelona"} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, method := range []Method{RSGDE3, GDE3} {
					for _, noise := range []float64{0, 0.01} {
						for _, o := range []struct {
							name string
							opt  OptimizerOptions
						}{
							{"default", OptimizerOptions{Seed: seed}},
							{"small", OptimizerOptions{PopSize: 12, CR: 0.7, F: 0.4, Stagnation: 2, MaxIterations: 15, Seed: seed}},
						} {
							cell := fmt.Sprintf("%s/%s/%s/seed%d/noise%g/%s", set.name, method, m, seed, noise, o.name)
							opts := []Option{WithMachine(m), WithMethod(method), WithNoise(noise), WithOptimizerOptions(o.opt)}
							var results []*TuneResult
							var err error
							if set.kernels == nil {
								results, err = TuneSourceAll(jointProgramSrc, opts...)
							} else {
								results, err = TuneAll(set.kernels, opts...)
							}
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							for r, res := range results {
								region := res.Unit.Region
								if set.kernels != nil {
									region = set.kernels[r]
								}
								id := fmt.Sprintf("%s/r%d-%s", cell, r, region)
								out[id] = pinJointRegion(t, id, res.Unit, res.Front, res.Evaluations, res.Iterations)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestGoldenJoint holds the joint multi-region searches — every
// region's front and emitted unit, the shared execution count and the
// lock-step iteration count of 192 fixed-seed cells — byte-identical to
// testdata/golden_joint.json (generated on the commit before the joint
// search was rebuilt on the single-region generation and evaluator), at
// GOMAXPROCS 1 and 4.
func TestGoldenJoint(t *testing.T) {
	checkGolden(t, goldenJointPath, computeGoldenJoint)
}
