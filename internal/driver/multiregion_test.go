package driver

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autotune/internal/export"
	"autotune/internal/irparse"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

func TestTuneKernelsJoint(t *testing.T) {
	opt := Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 12, Seed: 1, MaxIterations: 20},
	}
	multi, err := TuneKernels([]string{"mm", "jacobi-2d"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 2 {
		t.Fatalf("outputs = %d", len(multi))
	}
	for _, out := range multi {
		if len(out.Unit.Versions) == 0 {
			t.Fatalf("%s: empty unit", out.Unit.Region)
		}
		if out.Result.Evaluations != multi[0].Result.Evaluations {
			t.Fatalf("%s: per-region E %d != shared executions %d",
				out.Unit.Region, out.Result.Evaluations, multi[0].Result.Evaluations)
		}
	}
	if multi[0].Result.Evaluations == 0 || multi[0].Result.Iterations == 0 {
		t.Fatalf("metrics: %d/%d", multi[0].Result.Evaluations, multi[0].Result.Iterations)
	}
}

// The point of simultaneous tuning: tuning K regions jointly costs far
// fewer program executions than tuning them separately.
func TestJointTuningSharesExecutions(t *testing.T) {
	oopt := optimizer.Options{PopSize: 12, Seed: 2, MaxIterations: 25}
	opt := Options{Machine: machine.Westmere(), Optimizer: oopt}
	multi, err := TuneKernels([]string{"mm", "jacobi-2d", "n-body"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	separate := 0
	for _, name := range []string{"mm", "jacobi-2d", "n-body"} {
		out, err := TuneKernel(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		separate += out.Result.Evaluations
	}
	if multi[0].Result.Evaluations >= separate {
		t.Fatalf("joint executions %d not below separate total %d", multi[0].Result.Evaluations, separate)
	}
	t.Logf("joint=%d separate=%d (%.0f%% saved)", multi[0].Result.Evaluations, separate,
		100*(1-float64(multi[0].Result.Evaluations)/float64(separate)))
}

func TestTuneKernelsValidation(t *testing.T) {
	opt := Options{Machine: machine.Westmere()}
	if _, err := TuneKernels(nil, opt); err == nil {
		t.Error("empty kernel list accepted")
	}
	if _, err := TuneKernels([]string{"mm"}, Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := TuneKernels([]string{"nope"}, opt); err == nil {
		t.Error("unknown kernel accepted")
	}
	mopt := opt
	mopt.Measured = true
	if _, err := TuneKernels([]string{"mm"}, mopt); err == nil {
		t.Error("measured joint tuning should be rejected")
	}
}

// TestJointTuningRefusesWhatItCannotHonour: the joint search used to
// run the lock-step RS-GDE3 whatever was asked and return the plain
// run's result. Every option a single-region search honours and the
// joint one drops is refused by name, through both joint entry points,
// and a refused run journals nothing; what the per-region evaluator
// chains and the lock-step search can do — Objectives, UnrollDim, gde3,
// DB, EvalTimeout, Context — is honoured.
func TestJointTuningRefusesWhatItCannotHonour(t *testing.T) {
	prog, err := irparse.Parse(twoRegionSrc)
	if err != nil {
		t.Fatal(err)
	}
	openDB := func() *tunedb.DB {
		t.Helper()
		db, err := tunedb.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	db := openDB()
	base := func() Options {
		return Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{PopSize: 8, Seed: 1, MaxIterations: 4}}
	}
	for name, set := range map[string]func(*Options){
		"Method":  func(o *Options) { o.Method = MethodNSGA2 },
		"Islands": func(o *Options) { o.Islands = 4 },
		"InitialPopulation": func(o *Options) {
			o.Optimizer.InitialPopulation = []skeleton.Config{{64, 64, 64, 8}}
		},
		"WarmStart":      func(o *Options) { o.WarmStart = true },
		"CheckpointPath": func(o *Options) { o.CheckpointPath = filepath.Join(t.TempDir(), "j.ckpt") },
		"ResumeFrom":     func(o *Options) { o.ResumeFrom = filepath.Join(t.TempDir(), "j.ckpt") },
		"OnProgress":     func(o *Options) { o.OnProgress = func(int) {} },
		"Surrogate":      func(o *Options) { o.ScreenTopK = 4 },
	} {
		opt := base()
		opt.DB = db
		set(&opt)
		_, kerr := TuneKernels([]string{"mm", "jacobi-2d"}, opt)
		_, perr := TuneProgramAll(prog, opt)
		for entry, err := range map[string]error{"TuneKernels": kerr, "TuneProgramAll": perr} {
			if err == nil {
				t.Errorf("%s accepted and dropped %s", entry, name)
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: refusal of %s does not name it: %v", entry, name, err)
			}
		}
		if opt.CheckpointPath != "" {
			if _, err := os.Stat(opt.CheckpointPath); err == nil {
				t.Errorf("refused joint run left a checkpoint journal behind")
			}
		}
	}
	if keys := storedKeys(t, db); len(keys) != 0 {
		t.Errorf("refused joint runs journaled under %v", keys)
	}

	// Honoured: every region's evaluator chain is the one a single-region
	// search of it builds, so the joint search takes its options.
	honoured := func(opt Options) map[string][]*Output {
		t.Helper()
		k, err := TuneKernels([]string{"mm", "jacobi-2d"}, opt)
		if err != nil {
			t.Fatalf("TuneKernels: %v", err)
		}
		p, err := TuneProgramAll(prog, opt)
		if err != nil {
			t.Fatalf("TuneProgramAll: %v", err)
		}
		return map[string][]*Output{"TuneKernels": k, "TuneProgramAll": p}
	}
	energy := base()
	energy.Objectives = []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}
	for entry, multi := range honoured(energy) {
		for _, out := range multi {
			if names := out.Unit.ObjectiveNames; !reflect.DeepEqual(names, []string{"time", "resources", "energy"}) {
				t.Errorf("%s %s: objectives %v", entry, out.Unit.Region, names)
			}
			for _, p := range out.Result.Front {
				if len(p.Objectives) != 3 {
					t.Errorf("%s %s: front point with %d objectives", entry, out.Unit.Region, len(p.Objectives))
				}
			}
		}
	}
	unroll := base()
	unroll.UnrollDim = true
	for entry, multi := range honoured(unroll) {
		for _, out := range multi {
			for _, v := range out.Unit.Versions {
				if v.Meta.Unroll < 1 || v.Meta.Unroll > 8 {
					t.Errorf("%s %s: version unroll factor %d outside 1..8", entry, out.Unit.Region, v.Meta.Unroll)
				}
			}
		}
	}

	// DB: every region journals its evaluations and stores its front,
	// whose E is the joint execution count, under the key a single-region
	// search of it journals under; a single-region warm start reuses them.
	jdb := openDB()
	dopt := Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 1}, NoiseAmp: 0.01, DB: jdb}
	multi := honoured(dopt)
	stored := func(entry string, key tunedb.Key, out *Output) {
		t.Helper()
		if rec, ok := jdb.Front(key); !ok || rec.Evaluations != out.Result.Evaluations || len(rec.Points) != len(out.Result.Front) {
			t.Errorf("%s %s: front under %s stored %v with E %d and %d points, the search's E %d and %d points",
				entry, out.Unit.Region, key, ok, rec.Evaluations, len(rec.Points), out.Result.Evaluations, len(out.Result.Front))
		}
		if evalCount(t, jdb, key) == 0 {
			t.Errorf("%s %s: no evaluations journaled under %s", entry, out.Unit.Region, key)
		}
	}
	for r, name := range []string{"mm", "jacobi-2d"} {
		key, err := ProblemKey(name, dopt)
		if err != nil {
			t.Fatal(err)
		}
		stored("TuneKernels", key, multi["TuneKernels"][r])
	}
	single := dopt
	single.DB = openDB()
	if _, err := TuneProgram(prog, single); err != nil {
		t.Fatal(err)
	}
	stored("TuneProgramAll", storedKeys(t, single.DB)[0], multi["TuneProgramAll"][0])
	fronts := 0
	for _, key := range storedKeys(t, jdb) {
		if _, ok := jdb.Front(key); ok {
			fronts++
		}
	}
	if want := 2 + len(multi["TuneProgramAll"]); fronts != want {
		t.Errorf("the joint runs stored %d fronts for %d regions", fronts, want)
	}
	cold, err := TuneKernel("mm", Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 1}, NoiseAmp: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	warmOpt := dopt
	warmOpt.WarmStart = true
	warm, err := TuneKernel("mm", warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Result.Evaluations >= cold.Result.Evaluations {
		t.Errorf("a warm TuneKernel(mm) over the joint run's database evaluated %d configurations, a cold one %d",
			warm.Result.Evaluations, cold.Result.Evaluations)
	}

	// EvalTimeout: a watchdog that never fires leaves pinned joint cells
	// byte-identical.
	checkGoldenJointCells(t, func(opt *Options) { opt.EvalTimeout = time.Hour })

	// Context: a pre-cancelled search is an error that says so, and
	// stores no front.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	copt := base()
	copt.Context, copt.DB = cancelled, openDB()
	_, kerr := TuneKernels([]string{"mm", "jacobi-2d"}, copt)
	_, perr := TuneProgramAll(prog, copt)
	for entry, err := range map[string]error{"TuneKernels": kerr, "TuneProgramAll": perr} {
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Errorf("%s under a cancelled context: %v", entry, err)
		}
	}
	for _, key := range storedKeys(t, copt.DB) {
		if _, ok := copt.DB.Front(key); ok {
			t.Errorf("a cancelled joint run stored a front under %s", key)
		}
	}

	// Method-specific knobs every other method ignores too are not part
	// of this, and gde3 runs as the lock-step search without the
	// rough-set reduction rather than as RS-GDE3.
	opt := base()
	opt.RandomBudget, opt.GridPoints = 50, []int{2, 2, 2}
	if _, err := TuneKernels([]string{"mm", "jacobi-2d"}, opt); err != nil {
		t.Fatal(err)
	}
	opt.Method = MethodGDE3
	plain, err := TuneKernels([]string{"mm", "jacobi-2d"}, opt)
	if err != nil {
		t.Fatalf("joint gde3: %v", err)
	}
	direct := base()
	direct.Optimizer.DisableRoughSet = true
	want, err := TuneKernels([]string{"mm", "jacobi-2d"}, direct)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Result.Evaluations != want[0].Result.Evaluations || len(plain[0].Result.Front) != len(want[0].Result.Front) {
		t.Errorf("joint gde3 ran %d executions, the search without rough sets %d", plain[0].Result.Evaluations, want[0].Result.Evaluations)
	}
}

// jointProgramSrc is the three-region program of the joint golden cells
// in the root package's testdata/golden_joint.json.
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

// checkGoldenJointCells reruns four cells of the root package's
// testdata/golden_joint.json — two kernel pairs, two program runs — with
// set applied to their options and holds every region to its pin.
func checkGoldenJointCells(t *testing.T, set func(*Options)) {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/golden_joint.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]struct {
		FrontSHA256 string `json:"front_sha256"`
		UnitSHA256  string `json:"unit_sha256"`
		Executions  int    `json:"executions"`
		Iterations  int    `json:"iterations"`
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	prog, err := irparse.Parse(jointProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	small := optimizer.Options{PopSize: 12, CR: 0.7, F: 0.4, Stagnation: 2, MaxIterations: 15, Seed: 2}
	for _, c := range []struct {
		cell    string
		program bool
		opt     Options
	}{
		{"kernels2/rs-gde3/Westmere/seed1/noise0.01/default", false,
			Options{Machine: machine.Westmere(), Method: MethodRSGDE3, NoiseAmp: 0.01, Optimizer: optimizer.Options{Seed: 1}}},
		{"kernels2/gde3/Barcelona/seed2/noise0/small", false, Options{Machine: machine.Barcelona(), Method: MethodGDE3, Optimizer: small}},
		{"program/rs-gde3/Westmere/seed1/noise0.01/default", true,
			Options{Machine: machine.Westmere(), Method: MethodRSGDE3, NoiseAmp: 0.01, Optimizer: optimizer.Options{Seed: 1}}},
		{"program/gde3/Barcelona/seed2/noise0/small", true, Options{Machine: machine.Barcelona(), Method: MethodGDE3, Optimizer: small}},
	} {
		set(&c.opt)
		var outs []*Output
		if c.program {
			outs, err = TuneProgramAll(prog, c.opt)
		} else {
			outs, err = TuneKernels([]string{"mm", "jacobi-2d"}, c.opt)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.cell, err)
		}
		for r, out := range outs {
			region := out.Unit.Region
			if !c.program {
				region = []string{"mm", "jacobi-2d"}[r]
			}
			id := fmt.Sprintf("%s/r%d-%s", c.cell, r, region)
			var buf bytes.Buffer
			if err := export.FrontJSON(&buf, out.Result.Front, out.Unit.ObjectiveNames); err != nil {
				t.Fatal(err)
			}
			enc, err := out.Unit.Encode()
			if err != nil {
				t.Fatal(err)
			}
			pin, ok := pins[id]
			if !ok || pin.FrontSHA256 != fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())) || pin.UnitSHA256 != fmt.Sprintf("%x", sha256.Sum256(enc)) ||
				pin.Executions != out.Result.Evaluations || pin.Iterations != out.Result.Iterations {
				t.Errorf("%s differs from its golden joint pin (pinned: %v)", id, ok)
			}
		}
	}
}
