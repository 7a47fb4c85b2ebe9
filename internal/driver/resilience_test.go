package driver

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"autotune/internal/export"
	"autotune/internal/irparse"
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
	// A generous eval timeout exercises the guard path alongside
	// cancellation without changing behaviour.
	opt.EvalTimeout = 10e9

	// Cancel once the search is demonstrably under way: the observer
	// fires per fresh evaluation, possibly from concurrent evaluation
	// goroutines.
	var count atomic.Int64
	opt.onEvaluation = func() {
		if count.Add(1) == 30 {
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
	for _, key := range db.Keys() {
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

// TestCheckpointOptionValidation: checkpointing is generation-granular,
// so exactly the methods without a registered Restore refuse it — up
// front, before a journal file exists — and resume demands an existing
// journal.
func TestCheckpointOptionValidation(t *testing.T) {
	for _, name := range ValidMethods() {
		strat, err := optimizer.StrategyByName(name)
		resumable := err == nil && strat.Restore != nil
		opt := fastOpts()
		opt.Method = Method(name)
		opt.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
		_, err = TuneKernel("mm", opt)
		if refused := err != nil; refused == resumable {
			t.Errorf("%s: checkpoint refused = %v, strategy has Restore = %v (err: %v)", name, refused, resumable, err)
		}
		if _, statErr := os.Stat(opt.CheckpointPath); (statErr == nil) != resumable {
			t.Errorf("%s: journal file exists = %v, want %v", name, statErr == nil, resumable)
		}
		if !resumable {
			opt.CheckpointPath, opt.ResumeFrom = "", opt.CheckpointPath
			if _, err := TuneKernel("mm", opt); err == nil || strings.Contains(err.Error(), "resilience:") {
				t.Errorf("%s: resume not refused by the driver: %v", name, err)
			}
		}
	}
	opt := fastOpts()
	opt.Method = "alien"
	opt.CheckpointPath = filepath.Join(t.TempDir(), "x.ckpt")
	if _, err := TuneKernel("mm", opt); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method with a checkpoint path: %v", err)
	}
	opt = fastOpts()
	opt.ResumeFrom = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("resume from a missing journal succeeded")
	}
	opt = fastOpts()
	opt.CheckpointPath = filepath.Join(t.TempDir(), "a.ckpt")
	opt.ResumeFrom = opt.CheckpointPath
	if _, err := TuneKernel("mm", opt); err == nil {
		t.Fatal("checkpoint and resume of the same missing journal succeeded")
	}
}
