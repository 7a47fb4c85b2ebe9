package driver

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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
			t.Fatalf("%s: empty unit", out.Kernel.Name)
		}
		if out.Result.Evaluations != multi[0].Result.Evaluations {
			t.Fatalf("%s: per-region E %d != shared executions %d",
				out.Kernel.Name, out.Result.Evaluations, multi[0].Result.Evaluations)
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
// joint one drops is refused by name, through both joint entry points;
// what the per-region evaluators and the lock-step search can do —
// Objectives, UnrollDim, gde3 — is honoured.
func TestJointTuningRefusesWhatItCannotHonour(t *testing.T) {
	prog, err := irparse.Parse(twoRegionSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	base := func() Options {
		return Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{PopSize: 8, Seed: 1, MaxIterations: 4}}
	}
	for name, set := range map[string]func(*Options){
		"Method":  func(o *Options) { o.Method = MethodNSGA2 },
		"Islands": func(o *Options) { o.Islands = 4 },
		"InitialPopulation": func(o *Options) {
			o.Optimizer.InitialPopulation = []skeleton.Config{{64, 64, 64, 8}}
		},
		"DB":             func(o *Options) { o.DB = db },
		"WarmStart":      func(o *Options) { o.WarmStart = true },
		"CheckpointPath": func(o *Options) { o.CheckpointPath = filepath.Join(t.TempDir(), "j.ckpt") },
		"ResumeFrom":     func(o *Options) { o.ResumeFrom = filepath.Join(t.TempDir(), "j.ckpt") },
		"Context":        func(o *Options) { o.Context = cancelled },
		"EvalTimeout":    func(o *Options) { o.EvalTimeout = time.Second },
		"OnProgress":     func(o *Options) { o.OnProgress = func(int) {} },
		"Surrogate":      func(o *Options) { o.ScreenTopK = 4 },
	} {
		opt := base()
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
	if keys := db.Keys(); len(keys) != 0 {
		t.Errorf("refused joint runs journaled under %v", keys)
	}

	// Honoured: every region's evaluator is the one a single-region
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
