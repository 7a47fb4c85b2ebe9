package server

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autotune/internal/optimizer"
	"autotune/internal/resilience"
	"autotune/internal/tunedb"
)

// smallJob is a search sized for test turnaround: a handful of
// generations over the mm kernel.
func smallJob(seed int64) *JobRequest {
	return &JobRequest{Kernel: "mm", Seed: seed, PopSize: 8, MaxIterations: 2}
}

// waitTerminal blocks until the job reaches done/failed (the test
// fails after a generous timeout) and returns its final status.
func waitTerminal(t *testing.T, o *Orchestrator, id string) JobStatus {
	t.Helper()
	_, done, cancel, err := o.Subscribe(id)
	if err != nil {
		t.Fatalf("subscribe %s: %v", id, err)
	}
	defer cancel()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	st, err := o.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestOrchestratorRunsJobToDone(t *testing.T) {
	dir := t.TempDir()
	o, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	st, err := o.Submit(smallJob(1), "alice")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("submit status %+v", st)
	}
	st = waitTerminal(t, o, st.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, error %q", st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Points) == 0 {
		t.Fatalf("no result: %+v", st)
	}
	if st.Evaluations <= 0 {
		t.Fatalf("evaluations %d", st.Evaluations)
	}
	// The checkpoint journal of a finished job is garbage; it must not
	// survive.
	ckpts, _ := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if len(ckpts) != 0 {
		t.Fatalf("stale checkpoints after completion: %v", ckpts)
	}
	// The job's record is in the tuning database: the state directory
	// holds the database and the two journal directories, nothing else.
	var names []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"checkpoints", "spill", "tunedb"}) {
		t.Fatalf("the state directory holds %v", names)
	}
}

// persistInterrupted writes into a state directory no server has opened
// yet what a drained or killed one leaves behind for a job: the record
// of an interrupted job in the tuning database and, under sub, its
// checkpoint journal.
func persistInterrupted(t *testing.T, dir, sub string, req *JobRequest, journal []byte) (id, ckpt string) {
	t.Helper()
	id = "j000001"
	ckpt = filepath.Join(dir, sub, id+".ckpt")
	key, err := req.DedupKey()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(jobRecord{ID: id, Tenant: "alice", Request: req, State: stateInterrupted, DedupKey: key, Submitted: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := tunedb.Open(filepath.Join(dir, "tunedb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutJob(id, rec); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return id, ckpt
}

// TestFailedJobLeavesNoCheckpoint: a failed job is terminal — nothing
// re-enqueues it — so its checkpoint journal goes with it, wherever it
// was put, as a finished job's does. The job here fails on resume: its
// journal was written for another problem.
func TestFailedJobLeavesNoCheckpoint(t *testing.T) {
	for _, sub := range []string{"checkpoints", "spill"} {
		dir := t.TempDir()
		id, ckpt := persistInterrupted(t, dir, sub, smallJob(1), nil)
		writeForeignJournal(t, ckpt)
		o, err := NewOrchestrator(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, o, id)
		o.Drain()
		if st.State != StateFailed || !strings.Contains(st.Error, "another problem") {
			t.Fatalf("%s: job ended %s (%q), want failed on the foreign journal", sub, st.State, st.Error)
		}
		if left, _ := os.ReadDir(filepath.Dir(ckpt)); len(left) != 0 {
			t.Fatalf("%s: the failed job left %v behind", sub, left)
		}
	}
}

// TestInterruptedJobOverRetiredCheckpointRestarts: a server restarted
// over a job that a build up to commit ca39811 left interrupted finds a
// checkpoint in the JSONL framing it no longer reads. The job is not
// failed and nothing is resumed from a guess: it restarts from its seed
// and is served the front and the evaluation count of an uninterrupted
// job. Its status notes that its journal did not load; the
// uninterrupted job, which had none, has no note.
func TestInterruptedJobOverRetiredCheckpointRestarts(t *testing.T) {
	dir := t.TempDir()
	old := `{"v":1,"t":"snap","crc":3465878915,"d":{"method":"rs-gde3","generation":0,"evaluations":8,"states":[{}]}}
{"v":1,"t":"snap","crc":1193046,"d":{"method":"rs-gde3","generation":1,"evaluations":16,"states":[{}]}}
`
	id, _ := persistInterrupted(t, dir, "checkpoints", smallJob(7), []byte(old))
	o, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	restarted := waitTerminal(t, o, id)
	if restarted.State != StateDone {
		t.Fatalf("job over a JSONL checkpoint: %s (%s)", restarted.State, restarted.Error)
	}
	fresh := smallJob(7)
	fresh.Force = true
	st, err := o.Submit(fresh, "bob")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, o, st.ID)
	if want.State != StateDone || st.ID == id {
		t.Fatalf("uninterrupted job %s: %s (%s)", st.ID, want.State, want.Error)
	}
	if !reflect.DeepEqual(restarted.Result, want.Result) {
		t.Fatalf("restarted job serves\n%+v\nan uninterrupted one\n%+v", restarted.Result, want.Result)
	}
	if !strings.HasPrefix(restarted.Note, "started anew: the checkpoint journal does not load: ") || want.Note != "" {
		t.Fatalf("notes %q and %q, want the restarted job's to say its journal did not load and no other", restarted.Note, want.Note)
	}
}

// TestInterruptedJobOverRefusedFingerprintRestarts: a restarted server
// finds an interrupted job's journal whose fingerprint the search does
// not have — as a warm-started job's journal is, from a build whose
// fingerprints hashed the warm-start seeds. The search refuses it by
// name; the job is not failed but starts anew over it, and is served the
// front and the evaluation count of an uninterrupted job. Its status —
// and the record a restarted server reads it from — notes that the
// search refused the journal; the uninterrupted job's has no note.
func TestInterruptedJobOverRefusedFingerprintRestarts(t *testing.T) {
	dir := t.TempDir()
	id, ckpt := persistInterrupted(t, dir, "checkpoints", smallJob(7), nil)
	cp, err := resilience.CreateCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(&optimizer.Snapshot{Method: "rs-gde3", Fingerprint: "0123456789abcdef", Generation: 1, Evaluations: 16, States: []optimizer.IslandState{{}}}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	o, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	restarted := waitTerminal(t, o, id)
	if restarted.State != StateDone {
		t.Fatalf("job over a refused journal: %s (%s)", restarted.State, restarted.Error)
	}
	fresh := smallJob(7)
	fresh.Force = true
	st, err := o.Submit(fresh, "bob")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, o, st.ID)
	if want.State != StateDone || !reflect.DeepEqual(restarted.Result, want.Result) {
		t.Fatalf("restarted job serves\n%+v\nan uninterrupted one (%s)\n%+v", restarted.Result, want.State, want.Result)
	}
	const refused = "started anew: the search refused the checkpoint journal: "
	if !strings.HasPrefix(restarted.Note, refused) || !strings.Contains(restarted.Note, "0123456789abcdef") || want.Note != "" {
		t.Fatalf("notes %q and %q, want the restarted job's to name the refused journal and no other", restarted.Note, want.Note)
	}
	o.Drain()
	again, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Drain()
	if st, err := again.Status(id); err != nil || st.Note != restarted.Note {
		t.Fatalf("after a restart the job notes %q (%v), want %q", st.Note, err, restarted.Note)
	}
}

func TestOrchestratorDedup(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	first, err := o.Submit(smallJob(3), "alice")
	if err != nil {
		t.Fatal(err)
	}
	// An identical search from another tenant joins the first job.
	dup, err := o.Submit(smallJob(3), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("want dedup onto %s, got %+v", first.ID, dup)
	}
	// A different seed is a different search.
	other, err := o.Submit(smallJob(4), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if other.Deduped || other.ID == first.ID {
		t.Fatalf("distinct search deduped: %+v", other)
	}
	waitTerminal(t, o, first.ID)
	// Dedup keeps answering after completion, now with the result.
	done, err := o.Submit(smallJob(3), "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !done.Deduped || done.Result == nil {
		t.Fatalf("completed dedup hit lacks result: %+v", done)
	}
	// Force runs a fresh search despite the identical request.
	forced := smallJob(3)
	forced.Force = true
	fst, err := o.Submit(forced, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if fst.Deduped || fst.ID == first.ID {
		t.Fatalf("forced submit deduped: %+v", fst)
	}
	if n := o.dedupHits.Load(); n != 2 {
		t.Fatalf("dedup hits %d, want 2", n)
	}
}

// TestOrchestratorDedupWithWarmStartSet: two submissions that both set
// warm_start:true — decoded separately, so each holds its own pointer —
// are one search and share one job; the opposite setting is another.
func TestOrchestratorDedupWithWarmStartSet(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	decode := func(body string) *JobRequest {
		t.Helper()
		req, err := decodeJobRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	const body = `{"kernel":"mm","seed":3,"pop_size":8,"max_iterations":2,"warm_start":true}`
	first, err := o.Submit(decode(body), "alice")
	if err != nil {
		t.Fatal(err)
	}
	dup, err := o.Submit(decode(body), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != first.ID {
		t.Fatalf("second warm_start:true submission did not join %s: %+v", first.ID, dup)
	}
	other, err := o.Submit(decode(strings.Replace(body, "true", "false", 1)), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if other.Deduped || other.ID == first.ID {
		t.Fatalf("warm_start:false deduped onto the warm_start:true job: %+v", other)
	}
	waitTerminal(t, o, first.ID)
	waitTerminal(t, o, other.ID)
}

// TestProgressPerBatchEvalHookPerEvaluation: a job posts one progress
// event per evaluated batch — the initial population and each
// generation — carrying the cumulative count, while EvalHook still
// fires once per fresh evaluation with consecutive counts, a batch's
// worth of them before that batch's event.
func TestProgressPerBatchEvalHookPerEvaluation(t *testing.T) {
	var mu sync.Mutex
	var hooks []int
	started := make(chan struct{})
	subscribed := make(chan struct{})
	o, err := NewOrchestrator(Config{
		StateDir:    t.TempDir(),
		NoWarmStart: true,
		EvalHook: func(id string, n int) {
			mu.Lock()
			hooks = append(hooks, n)
			mu.Unlock()
			if n == 1 {
				// The first batch is evaluated, its event not yet posted:
				// hold the search until the test listens.
				close(started)
				<-subscribed
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	st, err := o.Submit(smallJob(11), "alice")
	if err != nil {
		t.Fatal(err)
	}
	<-started
	events, done, cancel, err := o.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(subscribed)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job never finished")
	}
	final, err := o.Status(st.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("job: %+v, %v", final, err)
	}
	var progress []int
	for len(events) > 0 {
		if ev := <-events; ev.State == StateRunning {
			progress = append(progress, ev.Evaluations)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, n := range hooks {
		if n != i+1 {
			t.Fatalf("EvalHook counts not consecutive from 1: %v", hooks)
		}
	}
	if len(hooks) < final.Result.Evaluations {
		t.Fatalf("EvalHook fired %d times for %d evaluations", len(hooks), final.Result.Evaluations)
	}
	if len(progress) == 0 || len(progress) > final.Result.Iterations+1 {
		t.Fatalf("%d progress events for %d generations after the initial population: %v",
			len(progress), final.Result.Iterations, progress)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] <= progress[i-1] {
			t.Fatalf("progress counts not growing: %v", progress)
		}
	}
	if last := progress[len(progress)-1]; last != len(hooks) {
		t.Fatalf("last progress event says %d evaluations, EvalHook counted %d", last, len(hooks))
	}
}

// TestEvalHookCountsEachEvaluationOnceUnderIslands: islands report
// their batches concurrently and their cumulative counts may reach the
// orchestrator out of order; every count from 1 to the total is still
// handed to EvalHook exactly once, and the job's counter ends on the
// total. Run under -race.
func TestEvalHookCountsEachEvaluationOnceUnderIslands(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	o, err := NewOrchestrator(Config{
		StateDir:    t.TempDir(),
		NoWarmStart: true,
		EvalHook: func(id string, n int) {
			mu.Lock()
			seen[n]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	st, err := o.Submit(&JobRequest{Kernel: "mm", Seed: 5, PopSize: 8, MaxIterations: 4, Islands: 4, Migrate: 2}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, o, st.ID); final.State != StateDone {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	for n := 1; n <= len(seen); n++ {
		if seen[n] != 1 {
			t.Fatalf("count %d of %d was handed to EvalHook %d times", n, len(seen), seen[n])
		}
	}
	if got := o.evaluations.Load(); got != int64(len(seen)) {
		t.Fatalf("orchestrator counted %d evaluations, EvalHook %d", got, len(seen))
	}
}

func TestOrchestratorQuota(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	cfg := Config{
		StateDir:           t.TempDir(),
		Workers:            1,
		MaxQueuedPerTenant: 2,
		EvalHook: func(id string, n int) {
			if id == "j000000" {
				<-release
			}
		},
	}
	o, err := NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	running, err := o.Submit(smallJob(10), "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the gated job occupies the only worker, so the later
	// submissions stay queued deterministically.
	for {
		st, err := o.Status(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for seed := int64(11); seed <= 12; seed++ {
		if _, err := o.Submit(smallJob(seed), "alice"); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if _, err := o.Submit(smallJob(13), "alice"); !errors.Is(err, errQuota) {
		t.Fatalf("over-quota submit: %v", err)
	}
	// Quotas are per tenant: bob is unaffected by alice's backlog.
	bob, err := o.Submit(smallJob(13), "bob")
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if n := o.shedQuota.Load(); n != 1 {
		t.Fatalf("quota rejections %d, want 1", n)
	}
	close(release)
	waitTerminal(t, o, bob.ID)
}

func TestOrchestratorRestartKeepsStateAndDedup(t *testing.T) {
	dir := t.TempDir()
	o, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := o.Submit(smallJob(20), "alice")
	if err != nil {
		t.Fatal(err)
	}
	ref := waitTerminal(t, o, st.ID)
	o.Drain()

	o2, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	got, err := o2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("restart lost the result: %+v", got)
	}
	if len(got.Result.Points) != len(ref.Result.Points) {
		t.Fatalf("restart changed the front: %d vs %d points",
			len(got.Result.Points), len(ref.Result.Points))
	}
	// Dedup state is rebuilt from disk: the same request still joins
	// the finished job instead of re-running it.
	dup, err := o2.Submit(smallJob(20), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != st.ID {
		t.Fatalf("dedup lost across restart: %+v", dup)
	}
}

func TestOrchestratorDrainRejectsSubmit(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	o.Drain()
	if !o.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := o.Submit(smallJob(1), "alice"); !errors.Is(err, errDraining) {
		t.Fatalf("submit during drain: %v", err)
	}
	if _, err := o.Status("j999999"); !errors.Is(err, errNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
}

func TestOrchestratorFailedJobSurfacesError(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	// Valid MiniIR syntax is not checked at submission; the search
	// itself fails and the job must land in failed with the message.
	st, err := o.Submit(&JobRequest{Source: "this is not a program"}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, o, st.ID)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("want failed with error, got %+v", st)
	}
}

// TestDedupNeverServesAnotherRequestsDeadline: a deadline may cut a
// search short, so a request that sets one is the same search only as
// requests that set the same one. A request without a deadline must
// never be answered by a bounded job — not while that job is queued or
// running, not once it has finished with a partial front, and not after
// a restart.
func TestDedupNeverServesAnotherRequestsDeadline(t *testing.T) {
	bounded := func() *JobRequest { r := smallJob(5); r.Deadline = "30ms"; return r }
	const boundedID = "j000000"
	entered, release := make(chan struct{}), make(chan struct{})
	dir := t.TempDir()
	o, err := NewOrchestrator(Config{StateDir: dir, EvalHook: func(id string, n int) {
		if id == boundedID && n == 1 {
			close(entered)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Submit(bounded(), "alice")
	if err != nil || first.ID != boundedID {
		t.Fatalf("bounded submit: %+v, %v", first, err)
	}

	// Queued or running: the unbounded request gets its own job.
	full, err := o.Submit(smallJob(5), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if full.Deduped || full.ID == first.ID {
		t.Fatalf("an unbounded request joined a running job bounded by a deadline: %+v", full)
	}

	// Hold the bounded search at the end of its first batch until its
	// deadline has passed (the deadline's clock started before the hook
	// could fire), so it finishes with a partial front.
	<-entered
	time.Sleep(40 * time.Millisecond)
	close(release)
	cut := waitTerminal(t, o, first.ID)
	if cut.State != StateDone || cut.Result == nil || !cut.Result.Partial {
		t.Fatalf("the bounded job did not end done and partial: %+v", cut)
	}
	whole := waitTerminal(t, o, full.ID)
	if whole.State != StateDone || whole.Result.Partial || whole.Result.Evaluations <= cut.Result.Evaluations {
		t.Fatalf("the unbounded job: %+v (bounded one: %d evaluations)", whole, cut.Result.Evaluations)
	}

	// Finished and partial: the unbounded request is answered by the
	// whole front, the equally bounded one by the job it repeats.
	again, err := o.Submit(smallJob(5), "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.ID != full.ID || again.Result.Partial {
		t.Fatalf("unbounded repeat: %+v, want the whole front of %s", again, full.ID)
	}
	same, err := o.Submit(bounded(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	if !same.Deduped || same.ID != first.ID {
		t.Fatalf("equally bounded repeat: %+v, want a dedup hit on %s", same, first.ID)
	}
	o.Drain()

	// Restart: the records are read back with the keys they were stored
	// under.
	o2, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	if st, err := o2.Status(boundedID); err != nil || st.Result == nil || !st.Result.Partial {
		t.Fatalf("the partial job did not survive the restart: %+v, %v", st, err)
	}
	if again, err = o2.Submit(smallJob(5), "bob"); err != nil {
		t.Fatal(err)
	}
	if !again.Deduped || again.ID != full.ID || again.Result.Partial {
		t.Fatalf("after a restart, unbounded repeat: %+v, want the whole front of %s", again, full.ID)
	}
	if same, err = o2.Submit(bounded(), "bob"); err != nil {
		t.Fatal(err)
	}
	if !same.Deduped || same.ID != first.ID {
		t.Fatalf("after a restart, equally bounded repeat: %+v, want a dedup hit on %s", same, first.ID)
	}
}
