package driver

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autotune/internal/export"
	"autotune/internal/irparse"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/tunedb"
)

// TestTuneKernelCheckpointResume is the driver-level acceptance check
// for checkpoint/resume: a checkpointed search trimmed back to an early
// generation and resumed finishes with the same front and cumulative E
// as the uninterrupted run.
func TestTuneKernelCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	opt := fastOpts()
	opt.Optimizer.MaxIterations = 6
	opt.CheckpointPath = ckpt
	full, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}

	if err := resilience.TrimCheckpoint(ckpt, 2); err != nil {
		t.Fatal(err)
	}
	opt.CheckpointPath = ""
	opt.ResumeFrom = ckpt
	resumed, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}

	var ja, jb strings.Builder
	if err := export.FrontJSON(&ja, full.Result.Front, nil); err != nil {
		t.Fatal(err)
	}
	if err := export.FrontJSON(&jb, resumed.Result.Front, nil); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("resumed front diverged from the full run\n got: %s\nwant: %s", jb.String(), ja.String())
	}
	if resumed.Result.Evaluations != full.Result.Evaluations {
		t.Fatalf("resumed E = %d, full E = %d", resumed.Result.Evaluations, full.Result.Evaluations)
	}
}

// TestTuneKernelCancelledReturnsPartial: a context cancelled mid-search
// yields the best-so-far front flagged Partial, and a partial front is
// never journaled to the database as final.
func TestTuneKernelCancelledReturnsPartial(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	opt := fastOpts()
	opt.Context = ctx
	opt.DB = db
	// A generous eval timeout exercises the watchdog path alongside
	// cancellation without changing behaviour.
	opt.EvalTimeout = 10e9

	// Cancel once the search is demonstrably under way: the progress
	// feed fires once per evaluated batch with the cumulative count.
	opt.OnProgress = func(evaluations int) {
		if evaluations >= 30 {
			cancel()
		}
	}
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Partial {
		t.Skip("search finished before the cancel landed")
	}
	if len(out.Result.Front) == 0 {
		t.Fatal("partial result carries no front")
	}
	if out.Result.Evaluations <= 0 {
		t.Fatal("partial result counts no evaluations")
	}
	for _, key := range storedKeys(t, db) {
		if _, ok := db.Front(key); ok {
			t.Fatal("partial front was journaled as final")
		}
	}
}

// TestTuneKernelCancelledBeforeStart: a context cancelled before any
// evaluation is a plain error, not a silent empty result.
func TestTuneKernelCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := fastOpts()
	opt.Context = ctx
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("pre-cancelled search returned a result")
	}
}

// TestTuneProgramResilienceOptions: the program entry point honours the
// same control wiring as TuneKernel — checkpoint/resume roundtrip and
// the pre-cancelled error.
func TestTuneProgramResilienceOptions(t *testing.T) {
	prog, err := irparse.Parse(customSrc)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "prog.ckpt")
	opt := fastOpts()
	opt.Optimizer.MaxIterations = 5
	opt.CheckpointPath = ckpt
	full, err := TuneProgram(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := resilience.TrimCheckpoint(ckpt, 2); err != nil {
		t.Fatal(err)
	}
	opt.CheckpointPath = ""
	opt.ResumeFrom = ckpt
	resumed, err := TuneProgram(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Result.Evaluations != full.Result.Evaluations ||
		len(resumed.Result.Front) != len(full.Result.Front) {
		t.Fatalf("resumed E/front = %d/%d, full = %d/%d",
			resumed.Result.Evaluations, len(resumed.Result.Front),
			full.Result.Evaluations, len(full.Result.Front))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt = fastOpts()
	opt.Context = ctx
	if _, err := TuneProgram(prog, opt); err == nil {
		t.Fatal("pre-cancelled program tuning returned a result")
	}
	opt = fastOpts()
	opt.Method = MethodBruteForce
	opt.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	if _, err := TuneProgram(prog, opt); err == nil {
		t.Fatal("brute force accepted a checkpoint path")
	}
}

// TestCheckpointOptionValidation is the refusal matrix: every valid
// method × {islands, surrogate, checkpoint, resume} through TuneKernel.
// An option is refused exactly when the method's strategy does not
// declare the capability (a race screens its contenders and runs
// neither islands nor a journal), the "use one of" list in the refusal
// is exactly the capable methods, a refusal creates no journal file,
// and an unknown method is told so before anything else. The
// expectation comes from the registry, so a strategy added tomorrow is
// covered without an edit.
func TestCheckpointOptionValidation(t *testing.T) {
	type caps struct{ islands, surrogate, checkpoint bool }
	capsOf := func(method string) caps {
		if method == string(MethodRace) {
			return caps{surrogate: true}
		}
		strat, err := optimizer.StrategyByName(method)
		if err != nil {
			t.Fatalf("%s is neither a strategy nor the race: %v", method, err)
		}
		return caps{islands: strat.Islands, surrogate: !strat.Exhaustive, checkpoint: strat.Restore != nil}
	}
	features := []struct {
		name  string
		has   func(caps) bool
		set   func(opt *Options, journal string)
		names string // what a refusal must say it refuses
	}{
		{"islands", func(c caps) bool { return c.islands }, func(o *Options, _ string) { o.Islands, o.MigrationInterval = 3, 2 }, "island model"},
		{"surrogate", func(c caps) bool { return c.surrogate }, func(o *Options, _ string) { o.Surrogate = true }, "surrogate screen"},
		{"checkpoint", func(c caps) bool { return c.checkpoint }, func(o *Options, j string) { o.CheckpointPath = j }, "checkpoint/resume"},
		{"resume", func(c caps) bool { return c.checkpoint }, func(o *Options, j string) { o.ResumeFrom = j }, "checkpoint/resume"},
	}
	for _, name := range ValidMethods() {
		if got, want := Checkpointable(Method(name)), capsOf(name).checkpoint; got != want {
			t.Errorf("Checkpointable(%s) = %v, want %v", name, got, want)
		}
	}
	for _, f := range features {
		var capable []string
		for _, name := range ValidMethods() {
			if f.has(capsOf(name)) {
				capable = append(capable, name)
			}
		}
		for _, name := range append(ValidMethods(), "alien") {
			journal := filepath.Join(t.TempDir(), "x.ckpt")
			opt := fastOpts()
			opt.Method = Method(name)
			f.set(&opt, journal)
			_, err := TuneKernel("mm", opt)
			if name == "alien" {
				if err == nil || !strings.Contains(err.Error(), "unknown method") {
					t.Errorf("%s on an unknown method: %v", f.name, err)
				}
				continue
			}
			// A refusal lists the methods to use instead; a capable
			// method resuming from a journal that does not exist fails
			// too, but in the journal reader.
			_, list, refused := strings.Cut(fmt.Sprint(err), "one of: ")
			if want := !f.has(capsOf(name)); refused != want {
				t.Errorf("%s + %s: refused = %v, want %v (err: %v)", name, f.name, refused, want, err)
			}
			if refused && list != strings.Join(capable, ", ") {
				t.Errorf("%s + %s: refusal lists %q, the capable methods are %q", name, f.name, list, strings.Join(capable, ", "))
			}
			if refused && !strings.Contains(err.Error(), f.names) {
				t.Errorf("%s + %s: refusal does not mention the %s: %v", name, f.name, f.names, err)
			}
			if !refused && err != nil && f.name != "resume" {
				t.Errorf("%s + %s: %v", name, f.name, err)
			}
			if _, statErr := os.Stat(journal); (statErr == nil) != (f.name == "checkpoint" && !refused) {
				t.Errorf("%s + %s: journal file exists = %v", name, f.name, statErr == nil)
			}
		}
	}
	opt := fastOpts()
	opt.CheckpointPath = filepath.Join(t.TempDir(), "a.ckpt")
	opt.ResumeFrom = opt.CheckpointPath
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("checkpoint and resume of the same missing journal succeeded")
	}
}

// TestMeasuredResumeIgnoresNoiseAndDefaultReps: the measured evaluator
// ignores the simulator's noise and times 0 repetitions as 3, so a
// measured checkpoint written at noise 0.01 with 3 repetitions (what
// cmd/autotune -measured runs) resumes under no noise and 0 repetitions
// (what WithMeasuredExecution(0) asks), and only another effective
// repetition count is another problem.
func TestMeasuredResumeIgnoresNoiseAndDefaultReps(t *testing.T) {
	if testing.Short() {
		t.Skip("measured tuning executes real kernels")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "measured.ckpt")
	base := Options{
		Machine:        machine.Westmere(),
		Measured:       true,
		N:              16,
		NoiseAmp:       0.01,
		MeasuredReps:   3,
		Optimizer:      optimizer.Options{PopSize: 4, Seed: 2, MaxIterations: 2},
		CheckpointPath: ckpt,
	}
	if _, err := TuneKernel("mm", base); err != nil {
		t.Fatal(err)
	}
	if err := resilience.TrimCheckpoint(ckpt, 1); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	base.CheckpointPath = ""
	for _, c := range []struct {
		name    string
		noise   float64
		reps    int
		refused bool
	}{
		{"no noise, default reps", 0, 0, false},
		{"noise, 3 reps", 0.05, 3, false},
		{"5 reps", 0, 5, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := base
			opt.NoiseAmp, opt.MeasuredReps = c.noise, c.reps
			opt.ResumeFrom = filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".ckpt")
			if err := os.WriteFile(opt.ResumeFrom, journal, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := TuneKernel("mm", opt)
			if refused := err != nil && strings.Contains(err.Error(), "another problem"); refused != c.refused {
				t.Fatalf("refused = %v, want %v (err: %v)", refused, c.refused, err)
			}
			if !c.refused && err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeRefusesAnotherProblem: the snapshot fingerprint covers the
// space and the optimizer options, and two problems can share both — mm
// and dsyrk search the same space, and neither a machine with another
// clock, nor a noise amplitude, nor a third objective moves it. A
// checkpoint resumed as any of them is refused, never mixed into a
// front of two problems' objective values and never a panic (three
// objectives over two-objective members indexed out of range in the
// crowding distance); another problem size, which does move the space,
// is refused as it always was, and the problem itself still resumes.
func TestResumeRefusesAnotherProblem(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "mm.ckpt")
	base := fastOpts()
	base.Optimizer.MaxIterations = 4
	base.CheckpointPath = ckpt
	if _, err := TuneKernel("mm", base); err != nil {
		t.Fatal(err)
	}
	if err := resilience.TrimCheckpoint(ckpt, 2); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	base.CheckpointPath = ""
	for _, c := range []struct {
		name, kernel string
		change       func(*Options)
		refused      bool
	}{
		{"kernel", "dsyrk", func(*Options) {}, true},
		{"machine", "mm", func(o *Options) { m := *o.Machine; m.ClockGHz *= 2; o.Machine = &m }, true},
		{"noise", "mm", func(o *Options) { o.NoiseAmp = 0.05 }, true},
		{"objectives", "mm", func(o *Options) {
			o.Objectives = []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}
		}, true},
		{"N", "mm", func(o *Options) { o.N = 96 }, true},
		{"the same problem", "mm", func(*Options) {}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Resuming reopens the journal for appending: each case gets
			// its own copy.
			opt := base
			opt.ResumeFrom = filepath.Join(dir, c.name+".ckpt")
			if err := os.WriteFile(opt.ResumeFrom, journal, 0o644); err != nil {
				t.Fatal(err)
			}
			c.change(&opt)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resuming an mm checkpoint under another %s panicked: %v", c.name, r)
				}
			}()
			_, err := TuneKernel(c.kernel, opt)
			if refused := err != nil && strings.Contains(err.Error(), "checkpoint"); refused != c.refused {
				t.Fatalf("refused = %v, want %v (err: %v)", refused, c.refused, err)
			}
		})
	}
}
