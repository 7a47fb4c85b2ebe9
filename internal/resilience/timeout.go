// Package resilience hardens long-running searches against hangs and
// interruptions: a watchdog middleware for the shared evaluation cache
// (Watchdog), and crash-safe checkpoint journals — logs of
// internal/store's CRC frames — that let an interrupted search resume
// exactly where it stopped (Checkpoint).
package resilience

import (
	"context"
	"time"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// Watchdog returns middleware for CachingEvaluator.WrapEvalFunc that
// bounds each evaluation by timeout. An evaluation that exceeds it is
// abandoned — its goroutine runs to completion in the background, as Go
// cannot kill it — and recorded as a failed configuration (nil
// objectives, nil error) — cached, never retried, skipped by the
// optimizers and excluded from E, exactly like an invalid variant — so
// one hung variant cannot stall the search. Context cancellation
// surfaces as an abort (ctx's error), so the result stays uncached and a
// resumed search re-evaluates the configuration.
//
// The watchdog passes the cache's dst through. An abandoned evaluation
// may therefore still append into its own cut of the batch's slab after
// the batch has returned; the cache records nil for that key (nothing,
// when the context was cancelled) and the batch's caller is handed nil
// for it, so nothing ever reads that cut, and the cut's capped capacity
// keeps the late write off its neighbours. The configuration, which is
// the caller's again once the call returns (objective.Evaluator), is
// copied for the evaluation's goroutine: an abandoned evaluation reads
// its copy, not memory the search may have rewritten. A non-positive
// timeout leaves next as it is.
func Watchdog(timeout time.Duration) func(objective.CtxEvalFunc) objective.CtxEvalFunc {
	type result struct {
		objs []float64
		err  error
	}
	return func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
		if timeout <= 0 {
			return next
		}
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			done := make(chan result, 1)
			cfg = cfg.Clone()
			go func() {
				objs, err := next(ctx, cfg, dst)
				done <- result{objs, err}
			}()
			t := time.NewTimer(timeout)
			defer t.Stop()
			select {
			case r := <-done:
				return r.objs, r.err
			case <-t.C:
				// A hung variant is a property of the configuration, not
				// of the moment: record it as failed.
				return nil, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}
