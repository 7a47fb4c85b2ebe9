package optimizer_test

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// memCheckpointer collects every snapshot, JSON round-tripping each one
// so the test also proves the snapshots survive serialization — the
// path the file-based checkpoint journal takes.
type memCheckpointer struct {
	mu    sync.Mutex
	snaps []*optimizer.Snapshot
}

func (m *memCheckpointer) Save(s *optimizer.Snapshot) error {
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	var round optimizer.Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		return err
	}
	m.mu.Lock()
	m.snaps = append(m.snaps, &round)
	m.mu.Unlock()
	return nil
}

// foldedAt rebuilds the resumable snapshot at index i the way the
// journal loader does: the latest state with the evaluation traces of
// every record up to it accumulated for cache priming.
func (m *memCheckpointer) foldedAt(i int) *optimizer.Snapshot {
	s := *m.snaps[i]
	var evals []optimizer.EvalState
	for j := 0; j <= i; j++ {
		evals = append(evals, m.snaps[j].Evals...)
	}
	s.Evals = evals
	return &s
}

// controlledMethod runs one search method under a Control.
type controlledMethod func(eval objective.Evaluator, seed int64, ctrl optimizer.Control) (*optimizer.Result, error)

// controlledMethods is every registered strategy that can checkpoint
// (it has a Restore), serial and — where it declares Islands — as three
// islands.
func controlledMethods(space skeleton.Space) map[string]controlledMethod {
	methods := map[string]controlledMethod{}
	add := func(label, name string, iopt *optimizer.IslandOptions) {
		methods[label] = func(e objective.Evaluator, seed int64, ctrl optimizer.Control) (*optimizer.Result, error) {
			return optimizer.Run(space, e, spec(name, optimizer.Options{PopSize: 12, MaxIterations: 8, Seed: seed}, iopt), ctrl)
		}
	}
	for _, name := range optimizer.StrategyNames() {
		strat, _ := optimizer.StrategyByName(name)
		if strat.Restore == nil {
			continue
		}
		add(name, name, nil)
		if strat.Islands {
			add(name+"-islands", name, &optimizer.IslandOptions{Islands: 3, MigrationInterval: 2})
		}
	}
	return methods
}

// spec is the Spec of the named strategy over opt — serial, or the
// island model when iopt is non-nil.
func spec(name string, opt optimizer.Options, iopt *optimizer.IslandOptions) optimizer.Spec {
	return optimizer.Spec{Strategy: name, Config: optimizer.StrategyConfig{Options: opt}, Islands: iopt}
}

// TestResumeEveryGenerationByteIdentical is the crash-anywhere
// guarantee: for every method and seed, a full checkpointed run is
// "interrupted" at every single generation boundary and resumed from
// that snapshot with a fresh evaluator; the resumed run must reproduce
// the uninterrupted run's front byte for byte and its E exactly.
func TestResumeEveryGenerationByteIdentical(t *testing.T) {
	space := islandSpace()
	for name, run := range controlledMethods(space) {
		for _, seed := range []int64{1, 2} {
			cp := &memCheckpointer{}
			full, err := run(newDetEval(), seed, optimizer.Control{Checkpointer: cp})
			if err != nil {
				t.Fatalf("%s seed %d: full run: %v", name, seed, err)
			}
			if len(cp.snaps) == 0 {
				t.Fatalf("%s seed %d: no snapshots saved", name, seed)
			}
			want := frontFingerprint(full.Front)
			for i := range cp.snaps {
				snap := cp.foldedAt(i)
				res, err := run(newDetEval(), seed, optimizer.Control{Resume: snap})
				if err != nil {
					t.Fatalf("%s seed %d: resume at gen %d: %v", name, seed, snap.Generation, err)
				}
				if got := frontFingerprint(res.Front); got != want {
					t.Errorf("%s seed %d: resume at gen %d: front diverged\nwant %s\ngot  %s",
						name, seed, snap.Generation, want, got)
				}
				if res.Evaluations != full.Evaluations {
					t.Errorf("%s seed %d: resume at gen %d: E = %d, uninterrupted run had %d",
						name, seed, snap.Generation, res.Evaluations, full.Evaluations)
				}
				if res.Iterations != full.Iterations {
					t.Errorf("%s seed %d: resume at gen %d: iterations = %d, want %d",
						name, seed, snap.Generation, res.Iterations, full.Iterations)
				}
			}
		}
	}
}

// TestResumeContinuesCheckpointing verifies a resumed run keeps
// checkpointing: resume from the first snapshot, and the continuation
// must save the remaining generations.
func TestResumeContinuesCheckpointing(t *testing.T) {
	space := islandSpace()
	run := controlledMethods(space)["rs-gde3"]
	cp := &memCheckpointer{}
	full, err := run(newDetEval(), 1, optimizer.Control{Checkpointer: cp})
	if err != nil {
		t.Fatal(err)
	}
	cp2 := &memCheckpointer{}
	res, err := run(newDetEval(), 1, optimizer.Control{Checkpointer: cp2, Resume: cp.foldedAt(0)})
	if err != nil {
		t.Fatal(err)
	}
	if frontFingerprint(res.Front) != frontFingerprint(full.Front) {
		t.Fatal("resumed front diverged")
	}
	if len(cp2.snaps) == 0 {
		t.Fatal("resumed run saved no snapshots")
	}
	last := cp2.snaps[len(cp2.snaps)-1]
	if last.Generation != full.Iterations {
		t.Fatalf("last resumed snapshot at gen %d, want %d", last.Generation, full.Iterations)
	}
	if last.Evaluations != full.Evaluations {
		t.Fatalf("last resumed snapshot E = %d, want %d", last.Evaluations, full.Evaluations)
	}
}

// dominatesAll reports whether a dominates b (all objectives <=, one <).
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

func assertMutuallyNonDominated(t *testing.T, front []pareto.Point) {
	t.Helper()
	for i := range front {
		for j := range front {
			if i != j && dominates(front[i].Objectives, front[j].Objectives) {
				t.Fatalf("front point %d dominates point %d: partial front is not a valid Pareto set", i, j)
			}
		}
	}
}

// cancelAfter makes eval call cancel as its n-th evaluation completes —
// in the middle of whatever batch that evaluation belongs to, which the
// per-batch observers could not do.
func cancelAfter(eval *objective.CachingEvaluator, n int32, cancel context.CancelFunc) {
	var done atomic.Int32
	eval.WrapEvalFunc(func(next objective.CtxEvalFunc) objective.CtxEvalFunc {
		return func(ctx context.Context, cfg skeleton.Config, dst []float64) ([]float64, error) {
			objs, err := next(ctx, cfg, dst)
			if done.Add(1) == n {
				cancel()
			}
			return objs, err
		}
	})
}

// TestCancelReturnsPartialFront cancels the context after a fixed
// number of completed evaluations and requires a graceful, valid
// outcome: no error, Partial set, a mutually non-dominated front, and
// an Evaluations count matching the evaluator's.
func TestCancelReturnsPartialFront(t *testing.T) {
	space := islandSpace()
	for name, run := range controlledMethods(space) {
		eval := newDetEval()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cancelAfter(eval, 25, cancel)
		res, err := run(eval, 1, optimizer.Control{Ctx: ctx})
		if err != nil {
			t.Fatalf("%s: cancelled run returned error: %v", name, err)
		}
		if !res.Partial {
			// The search may legitimately finish before evaluation 25
			// fires the cancel; only a cancelled run must be partial.
			if ctx.Err() != nil && res.Iterations < 8 {
				t.Fatalf("%s: interrupted run did not set Partial", name)
			}
			continue
		}
		if len(res.Front) == 0 {
			t.Fatalf("%s: partial result has an empty front despite completed evaluations", name)
		}
		assertMutuallyNonDominated(t, res.Front)
		if res.Evaluations != eval.Evaluations() {
			t.Fatalf("%s: partial E = %d, evaluator counted %d", name, res.Evaluations, eval.Evaluations())
		}
	}
}

// TestCancelledBeforeStart runs with an already-done context: the
// search must come back immediately, partial, with no error.
func TestCancelledBeforeStart(t *testing.T) {
	space := islandSpace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := optimizer.Run(space, newDetEval(),
		spec("rs-gde3", optimizer.Options{PopSize: 8, MaxIterations: 4, Seed: 1}, nil), optimizer.Control{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("pre-cancelled run did not report Partial")
	}
	if len(res.Front) != 0 {
		t.Fatalf("pre-cancelled run evaluated %d front points", len(res.Front))
	}
}

// TestConcurrentCancelDuringMigration exercises cancellation racing
// island steps and ring migrations (run under -race): islands migrate
// every generation while another goroutine cancels mid-flight.
func TestConcurrentCancelDuringMigration(t *testing.T) {
	space := islandSpace()
	var delayed int32
	fn := func(cfg skeleton.Config) []float64 {
		if atomic.AddInt32(&delayed, 1) > 36 { // let the initial populations through fast
			time.Sleep(200 * time.Microsecond)
		}
		return deterministicFn(cfg)
	}
	for trial := 0; trial < 4; trial++ {
		eval := objective.NewCachingEvaluator([]string{"f1", "f2"}, 8, fn)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(2+trial) * time.Millisecond)
			cancel()
		}()
		res, err := optimizer.Run(space, eval,
			spec("rs-gde3", optimizer.Options{PopSize: 12, MaxIterations: 50, Seed: int64(trial)},
				&optimizer.IslandOptions{Islands: 4, MigrationInterval: 1}),
			optimizer.Control{Ctx: ctx})
		cancel()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Partial {
			assertMutuallyNonDominated(t, res.Front)
		}
		atomic.StoreInt32(&delayed, 0)
	}
}

// TestResumeFingerprintMismatch resumes a snapshot into a differently
// seeded search and expects a refusal.
func TestResumeFingerprintMismatch(t *testing.T) {
	space := islandSpace()
	cp := &memCheckpointer{}
	if _, err := optimizer.Run(space, newDetEval(),
		spec("rs-gde3", optimizer.Options{PopSize: 8, MaxIterations: 4, Seed: 1}, nil),
		optimizer.Control{Checkpointer: cp}); err != nil {
		t.Fatal(err)
	}
	_, err := optimizer.Run(space, newDetEval(),
		spec("rs-gde3", optimizer.Options{PopSize: 8, MaxIterations: 4, Seed: 2}, nil),
		optimizer.Control{Resume: cp.foldedAt(0)})
	if err == nil {
		t.Fatal("mismatched-seed resume was accepted")
	}
	if !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), "warm-start seeds") {
		t.Fatalf("fingerprint refusal %v: want it to wrap errors.ErrUnsupported and name the seeds", err)
	}

	// The problem tag the search cannot see into: a tagged snapshot
	// resumes under its own tag only; an untagged one — an older
	// binary's, or a run that declared no problem — under any.
	same := spec("rs-gde3", optimizer.Options{PopSize: 8, MaxIterations: 4, Seed: 1}, nil)
	for _, c := range []struct {
		wrote, resumes string
		ok             bool
	}{
		{"p1", "p1", true}, {"p1", "p2", false}, {"p1", "", false}, {"", "p2", true}, {"", "", true},
	} {
		cp := &memCheckpointer{}
		if _, err := optimizer.Run(space, newDetEval(), same, optimizer.Control{Checkpointer: cp, Problem: c.wrote}); err != nil {
			t.Fatal(err)
		}
		_, err := optimizer.Run(space, newDetEval(), same, optimizer.Control{Resume: cp.foldedAt(1), Problem: c.resumes})
		if (err == nil) != c.ok || (err != nil && !strings.Contains(err.Error(), "another problem")) {
			t.Errorf("snapshot tagged %q resumed under %q: %v", c.wrote, c.resumes, err)
		}
	}
}

// TestResumeTakesTheSeedsFromTheSnapshot: a warm-started search resumes
// whatever seeds its caller holds now — others, or none — and ends on
// the uninterrupted run's front, E and iterations: generation 0, seeds
// included, is in the snapshot, and the fingerprint covers the request
// only.
func TestResumeTakesTheSeedsFromTheSnapshot(t *testing.T) {
	space := islandSpace()
	for _, name := range optimizer.StrategyNames() {
		if strat, _ := optimizer.StrategyByName(name); strat.Restore == nil {
			continue
		}
		run := func(seeds []skeleton.Config, ctrl optimizer.Control) *optimizer.Result {
			res, err := optimizer.Run(space, newDetEval(), spec(name, optimizer.Options{PopSize: 8, MaxIterations: 5, Seed: 3, InitialPopulation: seeds}, nil), ctrl)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		cp := &memCheckpointer{}
		full := run([]skeleton.Config{{1, 1, 1}, {9, 2, 4}}, optimizer.Control{Checkpointer: cp})
		for _, now := range [][]skeleton.Config{nil, {{4, 7, 2}}} {
			res := run(now, optimizer.Control{Resume: cp.foldedAt(1)})
			if frontFingerprint(res.Front) != frontFingerprint(full.Front) || res.Evaluations != full.Evaluations || res.Iterations != full.Iterations {
				t.Errorf("%s resumed with seeds %v: front, E or iterations differ from the uninterrupted run", name, now)
			}
		}
	}
}

// TestBaselinesRejectResume: the one-shot baselines keep no generation
// state and must refuse a resume snapshot.
func TestBaselinesRejectResume(t *testing.T) {
	space := islandSpace()
	snap := &optimizer.Snapshot{}
	// A grid that fits, so brute force is refused for the resume.
	cfg := optimizer.StrategyConfig{Options: optimizer.Options{Seed: 1}, Grid: optimizer.Grid{{1}, {1}, {1}}}
	for _, name := range optimizer.StrategyNames() {
		if strat, _ := optimizer.StrategyByName(name); strat.Restore != nil {
			continue
		}
		_, err := optimizer.Run(space, newDetEval(), optimizer.Spec{Strategy: name, Config: cfg}, optimizer.Control{Resume: snap})
		if err == nil || !strings.Contains(err.Error(), "resume") {
			t.Fatalf("%s accepted a resume snapshot: %v", name, err)
		}
	}
}

// TestRandomControlledCancel: the random baseline honours cancellation
// at chunk granularity and reports a partial non-dominated subset.
func TestRandomControlledCancel(t *testing.T) {
	space := islandSpace()
	eval := newDetEval()
	ctx, cancel := context.WithCancel(context.Background())
	cancelAfter(eval, 70, cancel)
	res, err := optimizer.Run(space, eval, optimizer.Spec{Strategy: "random",
		Config: optimizer.StrategyConfig{Options: optimizer.Options{Seed: 1}, RandomBudget: 5000}}, optimizer.Control{Ctx: ctx})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("cancelled random sweep did not report Partial")
	}
	if len(res.Front) == 0 {
		t.Fatal("cancelled random sweep returned an empty front")
	}
	assertMutuallyNonDominated(t, res.Front)
}
