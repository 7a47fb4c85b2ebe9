package objective

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"autotune/internal/skeleton"
)

// TestSetContextAbortsUncached: with a cancelled context, uncached
// configurations are aborted — not evaluated, not cached, not counted,
// not observed — while cached entries still answer.
func TestSetContextAbortsUncached(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 4, countingFn(&calls))
	if out := c.EvaluateOne(skeleton.Config{1}); out == nil {
		t.Fatal("warm-up evaluation failed")
	}

	var observed atomic.Int64
	c.AddObserver(func(cfgs []skeleton.Config, _ []string, _ [][]float64) { observed.Add(int64(len(cfgs))) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)

	out := c.Evaluate([]skeleton.Config{{1}, {2}, {3}})
	if out[0] == nil {
		t.Fatal("cached entry stopped answering under a cancelled context")
	}
	if out[1] != nil || out[2] != nil {
		t.Fatalf("aborted evaluations returned %v, %v — want nil", out[1], out[2])
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want only the warm-up", calls.Load())
	}
	if c.Evaluations() != 1 || observed.Load() != 0 {
		t.Fatalf("E = %d, observations = %d — aborts must not count", c.Evaluations(), observed.Load())
	}

	// Aborted configurations were not cached as failures: clearing the
	// context evaluates them fresh.
	c.SetContext(context.Background())
	if out := c.EvaluateOne(skeleton.Config{2}); out == nil {
		t.Fatal("previously aborted configuration stayed poisoned")
	}
	if c.Evaluations() != 2 {
		t.Fatalf("E = %d after re-evaluation, want 2", c.Evaluations())
	}
}

// TestAddObserverRemove: every observer is handed each batch, in
// registration order, and a removed observer stops firing without
// disturbing the rest.
func TestAddObserverRemove(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 1, countingFn(&calls))
	var first, second atomic.Int64
	removeFirst := c.AddObserver(func([]skeleton.Config, []string, [][]float64) { first.Add(1) })
	c.AddObserver(func([]skeleton.Config, []string, [][]float64) {
		if second.Add(1) == 1 && first.Load() != 1 {
			t.Error("second observer ran before the first")
		}
	})

	c.EvaluateOne(skeleton.Config{1})
	if first.Load() != 1 || second.Load() != 1 {
		t.Fatalf("observers fired %d/%d times, want 1/1", first.Load(), second.Load())
	}
	removeFirst()
	removeFirst() // removing twice is harmless
	c.EvaluateOne(skeleton.Config{2})
	if first.Load() != 1 || second.Load() != 2 {
		t.Fatalf("after remove, observers fired %d/%d times, want 1/2", first.Load(), second.Load())
	}
}

// TestWrapEvalFuncLayers: middleware composes around the base function
// in wrap order — the last wrap is outermost — and an error return is
// an abort (uncached, unobserved), not a recorded failure.
func TestWrapEvalFuncLayers(t *testing.T) {
	var calls atomic.Int64
	c := NewCachingEvaluator([]string{"a", "b"}, 1, countingFn(&calls))
	var order []string
	c.WrapEvalFunc(func(next CtxEvalFunc) CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			order = append(order, "inner")
			return next(ctx, cfg, dst)
		}
	})
	c.WrapEvalFunc(func(next CtxEvalFunc) CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			order = append(order, "outer")
			if cfg[0] == 99 {
				return nil, errors.New("vetoed")
			}
			return next(ctx, cfg, dst)
		}
	})

	if out := c.EvaluateOne(skeleton.Config{1}); out == nil {
		t.Fatal("wrapped evaluation failed")
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("middleware ran in order %v, want [outer inner]", order)
	}

	// A middleware error aborts: nothing cached, nothing counted, and a
	// later request re-enters the stack.
	if out := c.EvaluateOne(skeleton.Config{99}); out != nil {
		t.Fatalf("vetoed evaluation returned %v", out)
	}
	if c.Evaluations() != 1 {
		t.Fatalf("E = %d, want 1 (the veto must not count)", c.Evaluations())
	}
	before := len(order)
	c.EvaluateOne(skeleton.Config{99})
	if len(order) == before {
		t.Fatal("vetoed configuration was cached — middleware never re-entered")
	}
}
