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
