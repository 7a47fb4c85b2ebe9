package server

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDrainInterruptsAndResumesByteIdentical is the graceful-drain
// acceptance test: a search interrupted by Drain checkpoints at its
// last completed generation, survives the restart as an interrupted
// job, resumes automatically, and finishes with exactly the front an
// uninterrupted run of the same request produces. Warm start is off on
// both sides so the comparison is strictly checkpoint-resume.
func TestDrainInterruptsAndResumesByteIdentical(t *testing.T) {
	req := &JobRequest{Kernel: "mm", Seed: 42, PopSize: 8, MaxIterations: 3}

	// Reference: the same request run to completion without
	// interruption, in its own state dir.
	ref, err := NewOrchestrator(Config{StateDir: t.TempDir(), NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.Submit(req, "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, st.ID)
	if want.State != StateDone {
		t.Fatalf("reference run: %s (%s)", want.State, want.Error)
	}
	ref.Drain()

	// Interrupted run: the eval gate stalls the search once it is past
	// the first full generation (pop 8: initial population + gen 1 =
	// 16 evaluations), guaranteeing the checkpoint journal holds a
	// complete, resumable snapshot. The hook reaches 20 when the second
	// generation's batch has been evaluated, before that generation is
	// checkpointed.
	dir := t.TempDir()
	var once sync.Once
	gateHit := make(chan struct{})
	release := make(chan struct{})
	o, err := NewOrchestrator(Config{
		StateDir:    dir,
		NoWarmStart: true,
		EvalHook: func(id string, n int) {
			if n >= 20 {
				once.Do(func() { close(gateHit) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err = o.Submit(req, "alice")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("search never reached the gate")
	}
	// Drain while the search is stalled between a generation's
	// evaluations and its checkpoint. Drain blocks until workers exit,
	// and the workers are blocked on the gate, so release the gate once
	// the drain has cancelled the contexts.
	drained := make(chan struct{})
	go func() { o.Drain(); close(drained) }()
	for !o.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}
	got, err := o.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != stateInterrupted {
		t.Fatalf("after drain: %s (%s)", got.State, got.Error)
	}
	ckpts, _ := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if len(ckpts) == 0 {
		t.Fatal("interrupted job left no checkpoint")
	}

	// Restart over the same state dir: the interrupted job re-enters
	// the queue and resumes from its checkpoint.
	o2, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	resumed := waitTerminal(t, o2, st.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", resumed.State, resumed.Error)
	}
	if !reflect.DeepEqual(resumed.Result.ObjectiveNames, want.Result.ObjectiveNames) {
		t.Fatalf("objective names diverged: %v vs %v",
			resumed.Result.ObjectiveNames, want.Result.ObjectiveNames)
	}
	if !reflect.DeepEqual(resumed.Result.Points, want.Result.Points) {
		t.Fatalf("resumed front differs from the uninterrupted run:\nresumed: %+v\nwant:    %+v",
			resumed.Result.Points, want.Result.Points)
	}
}

// TestWarmResumeAfterAnotherSeedReplacedTheFront: a warm-started,
// checkpointed job is drained mid-search; while it waits, another seed
// finishes on the same problem and replaces the stored front its seeds
// came from. The restarted server must still resume the job, to the
// front of the same job run without interruption: its generation-0
// population, seeds included, is in the checkpoint, so nothing the
// database holds now may refuse or move the resume.
func TestWarmResumeAfterAnotherSeedReplacedTheFront(t *testing.T) {
	req := func(seed int64) *JobRequest {
		return &JobRequest{Kernel: "mm", Seed: seed, PopSize: 8, MaxIterations: 6}
	}
	// Reference: seed 1 stores the front, then seed 2 runs warm from
	// it, uninterrupted.
	ref, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var want JobStatus
	for _, seed := range []int64{1, 2} {
		st, err := ref.Submit(req(seed), "ref")
		if err != nil {
			t.Fatal(err)
		}
		if want = waitTerminal(t, ref, st.ID); want.State != StateDone {
			t.Fatalf("reference seed %d: %s (%s)", seed, want.State, want.Error)
		}
	}
	ref.Drain()

	// The gate stalls every job but the first and the one submitted
	// under mu once it is past its initial population (at most 8 fresh
	// evaluations), so its journal holds a resumable snapshot.
	dir := t.TempDir()
	var (
		mu       sync.Mutex
		armed    bool
		passes   = map[string]bool{}
		once     sync.Once
		gateHit  = make(chan struct{})
		release  = make(chan struct{})
		draining = make(chan struct{})
	)
	o, err := NewOrchestrator(Config{StateDir: dir, EvalHook: func(id string, n int) {
		mu.Lock()
		stall := armed && !passes[id] && n > 8
		mu.Unlock()
		if stall {
			once.Do(func() { close(gateHit) })
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Submit(req(1), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, o, first.ID); st.State != StateDone {
		t.Fatalf("seed 1: %s (%s)", st.State, st.Error)
	}
	mu.Lock()
	armed = true
	mu.Unlock()
	warm, err := o.Submit(req(2), "alice")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("the warm job never reached the gate")
	}
	// Seed 3 runs beside the stalled job and replaces the stored front.
	mu.Lock()
	other, err := o.Submit(req(3), "bob")
	if err == nil {
		passes[other.ID] = true
	}
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, o, other.ID); st.State != StateDone {
		t.Fatalf("seed 3: %s (%s)", st.State, st.Error)
	}
	go func() { o.Drain(); close(draining) }()
	for !o.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-draining:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}
	if st, err := o.Status(warm.ID); err != nil || st.State != stateInterrupted {
		t.Fatalf("after drain: %+v (%v)", st, err)
	}

	o2, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	resumed := waitTerminal(t, o2, warm.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed warm job: %s (%s)", resumed.State, resumed.Error)
	}
	if !reflect.DeepEqual(resumed.Result.Points, want.Result.Points) {
		t.Fatalf("resumed front differs from the uninterrupted run:\nresumed: %+v\nwant:    %+v",
			resumed.Result.Points, want.Result.Points)
	}
}
