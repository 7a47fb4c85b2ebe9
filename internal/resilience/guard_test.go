package resilience_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/objective"
	"autotune/internal/resilience"
	"autotune/internal/rts"
	"autotune/internal/skeleton"
)

func cfg(vals ...int64) skeleton.Config { return skeleton.Config(vals) }

// TestWatchdogRecordsHangingEvaluation: a configuration whose
// evaluation hangs forever must come back as a recorded failure within
// the timeout — cached, excluded from E — while healthy configurations
// evaluate normally.
func TestWatchdogRecordsHangingEvaluation(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	eval := objective.NewCachingEvaluator([]string{"f"}, 4, func(c skeleton.Config) []float64 {
		if c[0] == 13 {
			<-hang
		}
		return []float64{float64(c[0])}
	})
	eval.WrapEvalFunc(resilience.Watchdog(20 * time.Millisecond))

	out := eval.Evaluate([]skeleton.Config{cfg(13), cfg(1), cfg(2)})
	if out[0] != nil {
		t.Fatalf("hung configuration returned %v, want recorded failure", out[0])
	}
	if out[1] == nil || out[2] == nil {
		t.Fatal("healthy configurations failed")
	}
	if eval.Evaluations() != 2 {
		t.Fatalf("E = %d, want 2 (the hung variant must not count)", eval.Evaluations())
	}
	// The failure is cached: re-requesting must not wait out a second
	// timeout.
	again := time.Now()
	if out := eval.EvaluateOne(cfg(13)); out != nil {
		t.Fatalf("cached failure returned %v", out)
	}
	if d := time.Since(again); d > 15*time.Millisecond {
		t.Fatalf("cached failure took %v — it was re-evaluated", d)
	}
}

// TestGuardCancellation: a context cancelled while a watchdogged
// evaluation hangs aborts it before the timeout, and an abort is never
// cached as a failure: once the context is live again the configuration
// is evaluated.
func TestGuardCancellation(t *testing.T) {
	release := make(chan struct{})
	var hung atomic.Bool
	eval := objective.NewCachingEvaluator([]string{"f"}, 1, func(c skeleton.Config) []float64 {
		if !hung.Swap(true) {
			<-release
		}
		return []float64{float64(c[0])}
	})
	eval.WrapEvalFunc(resilience.Watchdog(time.Hour)) // cancellation must cut the watch short

	ctx, cancel := context.WithCancel(context.Background())
	eval.SetContext(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if out := eval.EvaluateOne(cfg(4)); out != nil {
		t.Fatalf("cancelled evaluation returned %v", out)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v — the watchdog was not interrupted", d)
	}
	close(release)

	// With the context already dead, further evaluations abort before
	// the watchdog is even entered (the evaluator short-circuits them).
	if out := eval.EvaluateOne(cfg(5)); out != nil {
		t.Fatalf("pre-cancelled evaluation returned %v", out)
	}
	if eval.Evaluations() != 0 {
		t.Fatalf("E = %d, want 0 — nothing succeeded yet", eval.Evaluations())
	}

	// The abort was not recorded as a failure: a live context evaluates
	// the configuration.
	eval.SetContext(nil)
	if out := eval.EvaluateOne(cfg(4)); out == nil || out[0] != 4 {
		t.Fatalf("re-evaluated configuration returned %v, want [4]", out)
	}
}

// TestGuardComposesWithFaultInjector wires the runtime system's
// deterministic fault model into a watchdogged evaluation: a latency
// spike the injector fires in the measurement is cut short by the
// watchdog and recorded as a failed configuration, and a configuration
// the injector spares evaluates normally.
func TestGuardComposesWithFaultInjector(t *testing.T) {
	inj := &rts.FaultInjector{Latency: time.Second, LatencyRate: 1, Versions: []int{13}, Seed: 42}
	eval := objective.NewCachingEvaluator([]string{"f"}, 2, func(c skeleton.Config) []float64 {
		if err := inj.Apply(int(c[0])); err != nil {
			return nil
		}
		return []float64{float64(c[0])}
	})
	eval.WrapEvalFunc(resilience.Watchdog(20 * time.Millisecond))
	start := time.Now()
	out := eval.Evaluate([]skeleton.Config{cfg(13), cfg(5)})
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("the batch waited out the spike (%v)", d)
	}
	if out[0] != nil {
		t.Fatalf("spiked evaluation returned %v, want recorded failure", out[0])
	}
	if out[1] == nil || out[1][0] != 5 {
		t.Fatalf("spared evaluation returned %v, want [5]", out[1])
	}
	if _, spikes := inj.Counts(); spikes != 1 {
		t.Fatalf("injector fired %d spikes, want 1", spikes)
	}
	if eval.Evaluations() != 1 {
		t.Fatalf("E = %d, want 1", eval.Evaluations())
	}
}
