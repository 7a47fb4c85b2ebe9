package resilience

import (
	"context"
	"sync"
	"time"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// GuardConfig configures the evaluation guard. The zero value is a
// transparent pass-through (no watchdog, no retries).
type GuardConfig struct {
	// EvalTimeout bounds one evaluation attempt. A hung or overlong
	// evaluation is abandoned and recorded as a failed configuration —
	// it is cached and never retried, exactly like an invalid variant —
	// so one pathological point cannot stall the whole search. Zero
	// disables the watchdog.
	EvalTimeout time.Duration
	// Retries is the number of times a transiently faulted evaluation
	// (see Inject) is retried before being recorded as failed.
	Retries int
	// RetryBudget caps the total retries across the whole search; once
	// exhausted, faulted evaluations fail immediately. Zero means
	// unlimited.
	RetryBudget int
	// BaseBackoff is the first retry's backoff delay (default 1ms);
	// subsequent retries back off exponentially.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero means uncapped.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter source scaling each
	// backoff by a factor in [0.5, 1.5).
	JitterSeed int64
	// Inject, when non-nil, is consulted before every evaluation
	// attempt; a non-nil error marks a transient fault (the retry
	// trigger). It is the composition point for fault injectors — e.g.
	// an rts.FaultInjector's Error hook — and for probing flaky
	// measurement hardware.
	Inject func(cfg skeleton.Config, attempt int) error
}

// guardStats counts the guard's interventions.
type guardStats struct {
	// Timeouts is the number of evaluations abandoned by the watchdog.
	Timeouts int
	// Retries is the number of retry attempts performed.
	Retries int
	// Faults is the number of transient faults observed (including ones
	// that were then retried successfully).
	Faults int
	// Exhausted is the number of evaluations recorded as failed because
	// their retries ran out.
	Exhausted int
	// Cancelled is the number of evaluations aborted by context
	// cancellation while guarded.
	Cancelled int
}

// Guard is watchdog/retry middleware for the shared evaluation cache:
// install it with CachingEvaluator.WrapEvalFunc before the search
// starts. Timed-out and retry-exhausted evaluations surface as
// recorded failures (nil objectives, nil error) — cached, skipped by
// the optimizers, excluded from E — while context cancellation
// surfaces as an abort (non-nil error) so a resumed search
// re-evaluates the configuration. A Guard is safe for concurrent use
// by parallel evaluations.
type Guard struct {
	cfg GuardConfig

	mu      sync.Mutex
	jitter  *stats.CountedRand
	stats   guardStats
	retries int
}

// NewGuard builds a guard from cfg.
func NewGuard(cfg GuardConfig) *Guard {
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	return &Guard{cfg: cfg, jitter: stats.NewCountedRand(cfg.JitterSeed)}
}

// Middleware returns the wrapping function for
// CachingEvaluator.WrapEvalFunc.
func (g *Guard) Middleware() func(objective.CtxEvalFunc) objective.CtxEvalFunc {
	return func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config) ([]float64, error) {
			return g.run(ctx, cfg, next)
		}
	}
}

// run drives one guarded evaluation: inject-fault retry loop around a
// watchdogged attempt.
func (g *Guard) run(ctx context.Context, cfg skeleton.Config, next objective.CtxEvalFunc) ([]float64, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			g.count(func(s *guardStats) { s.Cancelled++ })
			return nil, err
		}
		if g.cfg.Inject != nil {
			if ferr := g.cfg.Inject(cfg, attempt); ferr != nil {
				g.count(func(s *guardStats) { s.Faults++ })
				if attempt >= g.cfg.Retries || !g.takeRetry() {
					g.count(func(s *guardStats) { s.Exhausted++ })
					return nil, nil
				}
				if !g.sleep(ctx, g.backoffFor(attempt)) {
					g.count(func(s *guardStats) { s.Cancelled++ })
					return nil, ctx.Err()
				}
				continue
			}
		}
		objs, err, timedOut := g.attempt(ctx, cfg, next)
		if timedOut {
			// A hung variant is a property of the configuration, not of
			// the moment: record it as failed rather than retrying.
			g.count(func(s *guardStats) { s.Timeouts++ })
			return nil, nil
		}
		if err != nil {
			g.count(func(s *guardStats) { s.Cancelled++ })
		}
		return objs, err
	}
}

// attempt runs next once under the watchdog. On timeout the evaluation
// goroutine is abandoned (it drains in the background); on context
// cancellation the abort error is propagated so the result stays
// uncached.
func (g *Guard) attempt(ctx context.Context, cfg skeleton.Config, next objective.CtxEvalFunc) (objs []float64, err error, timedOut bool) {
	if g.cfg.EvalTimeout <= 0 {
		objs, err = next(ctx, cfg)
		return objs, err, false
	}
	type result struct {
		objs []float64
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		o, e := next(ctx, cfg)
		ch <- result{o, e}
	}()
	t := time.NewTimer(g.cfg.EvalTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.objs, r.err, false
	case <-t.C:
		return nil, nil, true
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// takeRetry consumes one unit of the global retry budget.
func (g *Guard) takeRetry() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.RetryBudget > 0 && g.retries >= g.cfg.RetryBudget {
		return false
	}
	g.retries++
	g.stats.Retries++
	return true
}

// backoffFor computes the jittered exponential backoff for a retry
// following the given attempt.
func (g *Guard) backoffFor(attempt int) time.Duration {
	d := g.cfg.BaseBackoff
	for i := 0; i < attempt && d < time.Minute; i++ {
		d *= 2
	}
	if g.cfg.MaxBackoff > 0 && d > g.cfg.MaxBackoff {
		d = g.cfg.MaxBackoff
	}
	g.mu.Lock()
	scale := 0.5 + g.jitter.Float64()
	g.mu.Unlock()
	return time.Duration(float64(d) * scale)
}

// sleep waits for d or until the context is done, reporting whether the
// full wait elapsed.
func (g *Guard) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (g *Guard) count(f func(*guardStats)) {
	g.mu.Lock()
	f(&g.stats)
	g.mu.Unlock()
}
