// Package resilience hardens long-running searches against hangs and
// interruptions: a watchdog middleware for the shared evaluation cache
// (Watchdog), a generic call timeout for runtime entry points
// (RunWithTimeout), and crash-safe checkpoint journals — logs of
// internal/store's CRC frames — that let an interrupted search resume
// exactly where it stopped (Checkpoint).
package resilience

import (
	"context"
	"errors"
	"time"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// ErrTimedOut reports that a watchdogged call exceeded its deadline and
// was abandoned.
var ErrTimedOut = errors.New("resilience: timed out")

// RunWithTimeout runs fn, waiting at most d for it to finish. On
// timeout it returns ErrTimedOut immediately; the abandoned fn
// goroutine runs to completion in the background (Go cannot kill it),
// so fn must not hold locks the caller needs. A non-positive d runs fn
// inline with no watchdog.
func RunWithTimeout(d time.Duration, fn func() error) error {
	return runWithin(context.Background(), d, fn)
}

// Watchdog returns middleware for CachingEvaluator.WrapEvalFunc that
// bounds each evaluation by timeout. An evaluation that exceeds it is
// abandoned as RunWithTimeout abandons a call and recorded as a failed
// configuration (nil objectives, nil error) — cached, never retried,
// skipped by the optimizers and excluded from E, exactly like an invalid
// variant — so one hung variant cannot stall the search. Context
// cancellation surfaces as an abort (non-nil error), so the result stays
// uncached and a resumed search re-evaluates the configuration.
//
// The watchdog passes the cache's dst through. An abandoned evaluation
// may therefore still append into its own cut of the batch's slab after
// the batch has returned; the cache records nil for that key (nothing,
// when the context was cancelled) and the batch's caller is handed nil
// for it, so nothing ever reads that cut, and the cut's capped capacity
// keeps the late write off its neighbours.
func Watchdog(timeout time.Duration) func(objective.CtxEvalFunc) objective.CtxEvalFunc {
	return func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			var objs []float64
			err := runWithin(ctx, timeout, func() (err error) {
				objs, err = next(ctx, cfg, dst)
				return err
			})
			if errors.Is(err, ErrTimedOut) {
				// A hung variant is a property of the configuration, not
				// of the moment: record it as failed.
				return nil, nil
			}
			return objs, err
		}
	}
}

// runWithin runs fn, waiting at most d for it to finish and no longer
// than ctx lives: ErrTimedOut on timeout, ctx's error once it is done,
// fn's own error otherwise. An abandoned fn runs to completion in the
// background. A non-positive d runs fn inline.
func runWithin(ctx context.Context, d time.Duration, fn func() error) error {
	if d <= 0 {
		return fn()
	}
	done := make(chan error, 1)
	go func() { done <- fn() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return ErrTimedOut
	case <-ctx.Done():
		return ctx.Err()
	}
}
