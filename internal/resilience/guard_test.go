package resilience_test

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"autotune/internal/kernels"
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

// TestWatchdogAbandonedEvaluationWritesOnlyItsCut: the watchdog hands
// the cache's dst through, so an evaluation it abandons appends into its
// own cut of the batch's slab after the batch has returned. The cache
// holds nil for it, and every other vector of the batch stays what the
// batch returned — at GOMAXPROCS 1 and 4, clean under the race detector.
func TestWatchdogAbandonedEvaluationWritesOnlyItsCut(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			release := make(chan struct{})
			k := &kernels.Kernel{Name: "stub", TileDims: 1, BenchN: 1,
				Run: func(_ int64, tiles []int64, _ int) (float64, error) {
					if tiles[0] == 1 {
						<-release
					}
					return 0, nil
				}}
			m, err := objective.NewMeasured(k, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			late := make(chan []float64, 1)
			m.WrapEvalFunc(func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
				return func(ctx context.Context, c skeleton.Config, dst []float64) ([]float64, error) {
					objs, err := next(ctx, c, dst)
					if c[0] == 1 {
						late <- objs
					}
					return objs, err
				}
			})
			m.WrapEvalFunc(resilience.Watchdog(20 * time.Millisecond))

			batch := []skeleton.Config{cfg(1, 1), cfg(2, 1), cfg(3, 2), cfg(4, 1)}
			out := m.Evaluate(batch)
			if out[0] != nil {
				t.Fatalf("GOMAXPROCS %d: abandoned evaluation returned %v", procs, out[0])
			}
			kept := make([][]float64, len(out))
			for i := 1; i < len(out); i++ {
				if len(out[i]) != 2 {
					t.Fatalf("GOMAXPROCS %d: vector %d = %v", procs, i, out[i])
				}
				kept[i] = append([]float64(nil), out[i]...)
			}
			close(release)
			written := <-late
			// The late vector is the abandoned leader's cut: the first
			// of the slab, right before the second leader's.
			if len(written) != 2 || unsafe.Add(unsafe.Pointer(unsafe.SliceData(written)), 16) != unsafe.Pointer(unsafe.SliceData(out[1])) {
				t.Fatalf("GOMAXPROCS %d: the abandoned evaluation wrote %v outside its cut", procs, written)
			}
			if objs, ok := m.Lookup(batch[0]); !ok || objs != nil {
				t.Fatalf("GOMAXPROCS %d: cache holds %v, %v for the abandoned configuration, want a recorded nil", procs, objs, ok)
			}
			for i := 1; i < len(out); i++ {
				cached, _ := m.Lookup(batch[i])
				if !reflect.DeepEqual(out[i], kept[i]) || !reflect.DeepEqual(cached, kept[i]) {
					t.Fatalf("GOMAXPROCS %d: vector %d is %v (cached %v) after the late write, want %v", procs, i, out[i], cached, kept[i])
				}
			}
		}()
	}
}

// TestWatchdogAbandonedEvaluationReadsItsOwnConfig: a configuration is
// the caller's again once the evaluation call returns, and a search
// rewrites its offspring the next generation. An evaluation the
// watchdog abandoned still runs, so it must read a copy: here the
// caller overwrites the configuration before the abandoned evaluation
// looks at it, and the evaluation must still see what it was given.
func TestWatchdogAbandonedEvaluationReadsItsOwnConfig(t *testing.T) {
	release := make(chan struct{})
	seen := make(chan skeleton.Config, 1)
	slow := func(_ context.Context, c skeleton.Config, dst []float64) ([]float64, error) {
		<-release
		seen <- c.Clone()
		return append(dst, 1, 1), nil
	}
	eval := resilience.Watchdog(10 * time.Millisecond)(slow)
	c := skeleton.Config{7, 8}
	if objs, err := eval(context.Background(), c, nil); objs != nil || err != nil {
		t.Fatalf("the watchdog returned %v, %v for a hung evaluation, want a failure", objs, err)
	}
	c[0], c[1] = -1, -1
	close(release)
	if got := <-seen; !reflect.DeepEqual(got, skeleton.Config{7, 8}) {
		t.Fatalf("the abandoned evaluation read %v, want the configuration it was handed, [7 8]", got)
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
