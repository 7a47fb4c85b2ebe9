package driver

import (
	"strings"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/multiversion"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
)

func fastOpts() Options {
	return Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 12, Seed: 1, MaxIterations: 15},
	}
}

func TestTuneKernelRSGDE3(t *testing.T) {
	out, err := TuneKernel("mm", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("no versions emitted")
	}
	if out.Result.Evaluations <= 0 {
		t.Fatal("no evaluations counted")
	}
	// Versions sorted by time.
	prev := -1.0
	for _, v := range out.Unit.Versions {
		if v.Meta.Objectives[0] < prev {
			t.Fatal("versions not sorted by first objective")
		}
		prev = v.Meta.Objectives[0]
		if len(v.Meta.Tiles) != 3 {
			t.Fatalf("tiles = %v", v.Meta.Tiles)
		}
		if v.Meta.Threads < 1 || v.Meta.Threads > 40 {
			t.Fatalf("threads = %d", v.Meta.Threads)
		}
		if !strings.Contains(v.Code, "#pragma omp parallel for") {
			t.Fatal("emitted code listing not parallelized")
		}
		if v.Entry == nil {
			t.Fatal("entry not bound")
		}
	}
	// Front points are mutually non-dominated.
	for i := range out.Unit.Versions {
		for j := range out.Unit.Versions {
			if i == j {
				continue
			}
			if pareto.Dominates(out.Unit.Versions[i].Meta.Objectives, out.Unit.Versions[j].Meta.Objectives) {
				t.Fatal("version table contains dominated version")
			}
		}
	}
}

func TestTuneKernelAllKernelsAllMethods(t *testing.T) {
	for _, kname := range []string{"mm", "jacobi-2d", "n-body"} {
		for _, method := range []Method{MethodRSGDE3, MethodGDE3, MethodRandom} {
			opt := fastOpts()
			opt.Method = method
			opt.RandomBudget = 100
			out, err := TuneKernel(kname, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", kname, method, err)
			}
			if len(out.Unit.Versions) == 0 {
				t.Fatalf("%s/%s: empty unit", kname, method)
			}
		}
	}
}

func TestTuneKernelBruteForceSmallGrid(t *testing.T) {
	opt := fastOpts()
	opt.Method = MethodBruteForce
	opt.GridPoints = []int{4, 4, 4, 3}
	opt.N = 256
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Evaluations == 0 || len(out.Result.AllPoints) == 0 {
		t.Fatal("brute force should retain all points")
	}
}

func TestTuneKernelErrors(t *testing.T) {
	if _, err := TuneKernel("nope", fastOpts()); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := TuneKernel("mm", Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	opt := fastOpts()
	opt.Method = Method("alien")
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestUnitRoundTripAndRebind(t *testing.T) {
	out, err := TuneKernel("mm", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	data, err := out.Unit.Encode()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := multiversion.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	err = loaded.Bind(func(m multiversion.Meta) (multiversion.Entry, error) {
		return func() error { ran++; return nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Versions[0].Entry(); err != nil || ran != 1 {
		t.Fatal("rebound entry did not run")
	}
}

func TestMeasuredTuningSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tuning executes real kernels")
	}
	opt := Options{
		Machine:      machine.Westmere(),
		Measured:     true,
		N:            64,
		MeasuredReps: 1,
		Optimizer:    optimizer.Options{PopSize: 6, Seed: 2, MaxIterations: 3, Stagnation: 1},
	}
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("measured tuning produced no versions")
	}
}

// TestTuneKernelIslands drives every evolutionary method through the
// island-model plumbing (Options.Islands > 1) and checks the parallel
// path is deterministic end to end.
func TestTuneKernelIslands(t *testing.T) {
	for _, method := range []Method{MethodRSGDE3, MethodGDE3, MethodNSGA2} {
		opt := fastOpts()
		opt.Method = method
		opt.Islands = 3
		opt.MigrationInterval = 2
		out, err := TuneKernel("mm", opt)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(out.Unit.Versions) == 0 {
			t.Fatalf("%s: empty unit", method)
		}
		again, err := TuneKernel("mm", opt)
		if err != nil {
			t.Fatalf("%s rerun: %v", method, err)
		}
		if len(again.Result.Front) != len(out.Result.Front) {
			t.Fatalf("%s: island tuning not deterministic (%d vs %d front points)",
				method, len(out.Result.Front), len(again.Result.Front))
		}
		for i := range out.Result.Front {
			a, b := out.Result.Front[i], again.Result.Front[i]
			for c := range a.Objectives {
				if a.Objectives[c] != b.Objectives[c] {
					t.Fatalf("%s: front diverged at point %d: %v vs %v",
						method, i, a.Objectives, b.Objectives)
				}
			}
		}
	}
}

// TestTuneKernelNSGA2Serial covers the serial NSGA-II method selector.
func TestTuneKernelNSGA2Serial(t *testing.T) {
	opt := fastOpts()
	opt.Method = MethodNSGA2
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("empty unit")
	}
}

func TestTuneKernelRejectsNegativeRandomBudget(t *testing.T) {
	cases := []struct {
		method Method
		budget int
		ok     bool
	}{
		{MethodRandom, -1, false},
		{MethodRandom, -1000, false},
		{MethodRSGDE3, -1, false}, // validated regardless of method
		{MethodRandom, 0, true},   // zero means "use the default"
		{MethodRandom, 100, true},
	}
	for _, c := range cases {
		opt := fastOpts()
		opt.Method = c.method
		opt.RandomBudget = c.budget
		_, err := TuneKernel("mm", opt)
		if c.ok && err != nil {
			t.Errorf("%s budget %d: %v", c.method, c.budget, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s budget %d: negative budget accepted", c.method, c.budget)
		}
	}
}

// TestTuneKernelRace drives the racing meta-optimizer through the full
// pipeline: non-empty multi-versioned unit, evaluation budget honored
// exactly, and a deterministic front under a fixed seed.
func TestTuneKernelRace(t *testing.T) {
	opt := fastOpts()
	opt.Method = MethodRace
	opt.Race = RaceOptions{Interval: 2, Budget: 150}
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("race produced no versions")
	}
	if out.Result.Evaluations > opt.Race.Budget {
		t.Fatalf("race consumed %d evaluations, budget %d", out.Result.Evaluations, opt.Race.Budget)
	}
	again, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Result.Front) != len(out.Result.Front) {
		t.Fatalf("race not deterministic: %d vs %d front points",
			len(out.Result.Front), len(again.Result.Front))
	}
	for i := range out.Result.Front {
		a, b := out.Result.Front[i], again.Result.Front[i]
		for c := range a.Objectives {
			if a.Objectives[c] != b.Objectives[c] {
				t.Fatalf("race front diverged at point %d: %v vs %v", i, a.Objectives, b.Objectives)
			}
		}
	}
}

func TestTuneKernelRaceRejectsCheckpoint(t *testing.T) {
	opt := fastOpts()
	opt.Method = MethodRace
	opt.CheckpointPath = t.TempDir() + "/race.ckpt"
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("race with a checkpoint path accepted")
	}
	opt.CheckpointPath = ""
	opt.ResumeFrom = t.TempDir() + "/race.ckpt"
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("race with a resume path accepted")
	}
}

// TestCheckOptionsRefusesWhatTheRaceWould: CheckOptions refuses every
// race optimizer.Run would refuse, with Run's own reason, so a front-end
// refuses it before it opens a database or a journal; the contenders
// optimizer.RaceOptions defaults to are accepted.
func TestCheckOptionsRefusesWhatTheRaceWould(t *testing.T) {
	for name, c := range map[string]struct {
		race RaceOptions
		says string
	}{
		"one contender":       {RaceOptions{Strategies: []string{"gde3"}}, "at least two strategies"},
		"duplicate":           {RaceOptions{Strategies: []string{"gde3", "gde3"}}, "raced twice"},
		"unknown contender":   {RaceOptions{Strategies: []string{"gde3", "alien"}}, `"alien" is not a race contender`},
		"exhaustive":          {RaceOptions{Strategies: []string{"gde3", "brute-force"}}, `"brute-force" is not a race contender`},
		"negative interval":   {RaceOptions{Interval: -2}, "race interval -2"},
		"negative budget":     {RaceOptions{Budget: -5}, "race budget -5"},
		"default contenders":  {RaceOptions{}, ""},
		"explicit contenders": {RaceOptions{Strategies: []string{"grid", "random"}, Interval: 1, Budget: 10}, ""},
	} {
		opt := Options{Method: MethodRace, Race: c.race}
		err := CheckOptions(opt, false)
		_, runErr := opt.race().Resolve()
		switch {
		case c.says == "" && err != nil:
			t.Errorf("%s: refused: %v", name, err)
		case c.says != "" && (err == nil || !strings.Contains(err.Error(), c.says) || !strings.HasSuffix(err.Error(), runErr.Error())):
			t.Errorf("%s: CheckOptions says %v, want %q as Run says %v", name, err, c.says, runErr)
		}
	}
}

// TestTuneKernelMOTPESerial covers the serial MOTPE method selector.
func TestTuneKernelMOTPESerial(t *testing.T) {
	opt := fastOpts()
	opt.Method = MethodMOTPE
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Unit.Versions) == 0 {
		t.Fatal("empty unit")
	}
}
