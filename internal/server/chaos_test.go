package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autotune/internal/chaos"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/tunedb"
)

// degradeDB trips a WAL fault in the shared tuning database through
// the injector: a store write fails its shard, flipping the database
// read-only. The loop tolerates a concurrent job write consuming the
// armed fault first — either way the store ends up degraded.
func degradeDB(t *testing.T, o *Orchestrator, inj *chaos.Injector) {
	t.Helper()
	for i := 0; i < 100 && !o.db.Health().ReadOnly; i++ {
		inj.Add(chaos.Fault{Op: chaos.OpWrite, Path: "wal.log"})
		key := tunedb.Key{Fingerprint: fmt.Sprintf("chaos-trip-%d", i), MachineSig: "m", Objectives: "time", SpaceHash: "s"}
		o.DB().PutEval(key, skeleton.Config{1}, []float64{1})
	}
	if !o.db.Health().ReadOnly {
		t.Fatal("store not degraded after WAL faults")
	}
}

// waitHealthy polls until the recovery prober returns the store to
// writable service.
func waitHealthy(t *testing.T, o *Orchestrator) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for o.db.Health().ReadOnly {
		if time.Now().After(deadline) {
			t.Fatal("store never recovered after faults cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerDegradedShedsAndRecovers is the degraded-mode acceptance
// test: a disk fault flips the store read-only; the server keeps
// serving reads, sheds new submissions with 503 + Retry-After, reports
// "degraded" on /healthz and in /metrics; once the fault clears, the
// recovery prober returns it to "ok" and submissions — including a
// backpressure-aware SubmitRetry that waited out the hint — succeed.
func TestServerDegradedShedsAndRecovers(t *testing.T) {
	inj := chaos.NewInjector(nil)
	o, err := NewOrchestrator(Config{
		StateDir:        t.TempDir(),
		NoWarmStart:     true,
		DBFS:            inj,
		RecoverInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	hs := httptest.NewServer(New(o).Handler())
	defer hs.Close()
	c := &Client{BaseURL: hs.URL}
	ctx := context.Background()

	// A job completed while healthy: its reads must survive degradation.
	st, err := c.Submit(ctx, smallJob(1))
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, o, st.ID)
	if first.State != StateDone {
		t.Fatalf("healthy-phase job: %s (%s)", first.State, first.Error)
	}

	degradeDB(t, o, inj)
	// The disk stays bad: every recovery attempt's WAL write fails too,
	// so the prober keeps probing without healing the store until the
	// fault script is cleared. One fault per attempt; the pool outlasts
	// the degraded phase by orders of magnitude.
	for i := 0; i < 10000; i++ {
		inj.Add(chaos.Fault{Op: chaos.OpWrite | chaos.OpSync | chaos.OpTruncate, Path: "wal.log"})
	}

	if status, err := c.Healthz(ctx); err != nil || status != "degraded" {
		t.Fatalf("healthz while degraded = %q, %v", status, err)
	}
	// Writes shed with 503 and the 10 s Retry-After.
	_, err = c.Submit(ctx, smallJob(2))
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("submit while degraded = %v, want 503", err)
	}
	if retryAfter(err) != 10*time.Second {
		t.Fatalf("Retry-After hint = %v, want 10s", retryAfter(err))
	}
	// Reads keep working.
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list while degraded: %v", err)
	}
	if _, err := c.Status(ctx, first.ID); err != nil {
		t.Fatalf("status while degraded: %v", err)
	}
	degradedFront, err := c.Front(ctx, first.ID)
	if err != nil || len(degradedFront) == 0 {
		t.Fatalf("front while degraded: %v", err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`tuned_jobs_shed_total{reason="degraded"} 1`, "tuned_store_read_only 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// A backpressure-aware client honors the server hint: with only
	// shed answers, its recorded wait is the 10s Retry-After, not the
	// 100ms computed backoff.
	var waits []time.Duration
	_, err = c.SubmitRetry(ctx, smallJob(3), RetryPolicy{
		MaxAttempts: 2,
		rand:        rand.New(rand.NewSource(1)),
		sleep:       func(ctx context.Context, d time.Duration) error { waits = append(waits, d); return nil },
	})
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("SubmitRetry against degraded server = %v, want 503", err)
	}
	if len(waits) != 1 || waits[0] != 10*time.Second {
		t.Fatalf("SubmitRetry waits = %v, want [10s]", waits)
	}

	// Fault clears; the prober recovers the store and service resumes.
	inj.Clear()
	waitHealthy(t, o)
	if status, err := c.Healthz(ctx); err != nil || status != "ok" {
		t.Fatalf("healthz after recovery = %q, %v", status, err)
	}
	st, err = c.SubmitRetry(ctx, smallJob(4), RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	final := waitTerminal(t, o, st.ID)
	if final.State != StateDone {
		t.Fatalf("post-recovery job: %s (%s)", final.State, final.Error)
	}
	if metrics, _ := c.Metrics(ctx); !strings.Contains(metrics, "tuned_store_read_only 0") {
		t.Fatal("metrics still report read-only after recovery")
	}
}

// TestQuotaRejectionCarriesRetryAfter pins the bugfix: per-tenant
// quota 429s carry a Retry-After header (parsed into the client error)
// and count into tuned_jobs_shed_total.
func TestQuotaRejectionCarriesRetryAfter(t *testing.T) {
	release := make(chan struct{})
	o, err := NewOrchestrator(Config{
		StateDir:           t.TempDir(),
		Workers:            1,
		MaxQueuedPerTenant: 1,
		NoWarmStart:        true,
		EvalHook:           func(string, int) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(o).Handler())
	defer hs.Close()
	c := &Client{BaseURL: hs.URL}
	ctx := context.Background()

	if _, err := c.Submit(ctx, smallJob(1)); err != nil { // runs, blocked on the gate
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, smallJob(2)); err != nil { // queued, filling the quota
		t.Fatal(err)
	}
	// The queued job may still be in the queue or just dequeued; retry
	// until the quota rejection shape is observed.
	var qerr error
	for i := 0; i < 50; i++ {
		_, qerr = c.Submit(ctx, smallJob(int64(100+i)))
		if qerr != nil {
			break
		}
	}
	if StatusCode(qerr) != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %v, want 429", qerr)
	}
	if retryAfter(qerr) != 10*time.Second {
		t.Fatalf("429 Retry-After = %v, want 10s", retryAfter(qerr))
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `tuned_jobs_shed_total{reason="quota"} 1`) {
		t.Fatalf("metrics missing quota shed count:\n%s", metrics)
	}

	drained := make(chan struct{})
	go func() { o.Drain(); close(drained) }()
	for !o.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-drained
}

// TestChaosServerSweep drives seeded fault schedules through the whole
// service: jobs run while the tuning database fails underneath them.
// Invariants: no panic, no hang, every job reaches a terminal state,
// the HTTP surface keeps answering, and after the faults clear the
// service recovers and produces a front byte-identical to a fault-free
// run of the same request.
func TestChaosServerSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	finalReq := &JobRequest{Kernel: "mm", Seed: 999, PopSize: 8, MaxIterations: 2}

	// Fault-free shadow: the reference front for the final request.
	ref, err := NewOrchestrator(Config{StateDir: t.TempDir(), NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.Submit(finalReq, "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, st.ID)
	ref.Drain()
	if want.State != StateDone {
		t.Fatalf("reference run: %s (%s)", want.State, want.Error)
	}

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			inj := chaos.NewInjector(nil, chaos.Schedule(int64(seed), 3, 200)...)
			o, err := NewOrchestrator(Config{
				StateDir:        t.TempDir(),
				Workers:         2,
				NoWarmStart:     true,
				DBFS:            inj,
				RecoverInterval: 10 * time.Millisecond,
			})
			if err != nil {
				// A fault during open is a clean failure; retry clean.
				inj.Clear()
				t.Skipf("seed %d: open hit an injected fault: %v", seed, err)
			}
			defer o.Drain()
			hs := httptest.NewServer(New(o).Handler())
			defer hs.Close()
			c := &Client{BaseURL: hs.URL}
			ctx := context.Background()

			// Fire a burst of jobs into the fault schedule. Shed
			// submissions (degraded windows) are fine; accepted jobs
			// must terminate cleanly.
			var ids []string
			for i := 0; i < 4; i++ {
				st, err := c.Submit(ctx, smallJob(int64(seed*100+i)))
				if err != nil {
					if StatusCode(err) == 0 {
						t.Fatalf("transport error: %v", err)
					}
					continue
				}
				ids = append(ids, st.ID)
			}
			for _, id := range ids {
				st := waitTerminal(t, o, id)
				if st.State != StateDone && st.State != StateFailed {
					t.Fatalf("job %s ended %s", id, st.State)
				}
			}
			// The HTTP surface stays alive regardless of store health.
			if _, err := c.Healthz(ctx); err != nil {
				t.Fatalf("healthz during chaos: %v", err)
			}
			if _, err := c.Metrics(ctx); err != nil {
				t.Fatalf("metrics during chaos: %v", err)
			}

			// Faults clear; the service must return to full health and
			// match the fault-free shadow bit for bit.
			inj.Clear()
			waitHealthy(t, o)
			st, err := c.SubmitRetry(ctx, finalReq, RetryPolicy{MaxAttempts: 5})
			if err != nil {
				t.Fatalf("post-recovery submit: %v", err)
			}
			got := waitTerminal(t, o, st.ID)
			if got.State != StateDone {
				t.Fatalf("post-recovery job: %s (%s)", got.State, got.Error)
			}
			if !reflect.DeepEqual(got.Result.Points, want.Result.Points) {
				t.Fatalf("post-recovery front differs from fault-free run:\ngot:  %+v\nwant: %+v",
					got.Result.Points, want.Result.Points)
			}
		})
	}
}

// TestDrainWhileDegradedSpillsCheckpointAndResumes is the
// degraded-drain acceptance test: a SIGTERM-style drain while the
// store is read-only checkpoints the running search into the spill
// directory (not the normal checkpoint dir, which shares the failing
// volume), and a restarted server over the repaired state dir resumes
// it to a front byte-identical to an uninterrupted run.
func TestDrainWhileDegradedSpillsCheckpointAndResumes(t *testing.T) {
	req := &JobRequest{Kernel: "mm", Seed: 42, PopSize: 8, MaxIterations: 3}

	ref, err := NewOrchestrator(Config{StateDir: t.TempDir(), NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ref.Submit(req, "ref")
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, st.ID)
	ref.Drain()
	if want.State != StateDone {
		t.Fatalf("reference run: %s (%s)", want.State, want.Error)
	}

	dir := t.TempDir()
	inj := chaos.NewInjector(nil)
	var once sync.Once
	gateHit := make(chan struct{})
	release := make(chan struct{})
	blockerParked := make(chan struct{})
	blockerRelease := make(chan struct{})
	// The hook discriminates by job ID: until the real job's ID is
	// known every call blocks, which parks the blocker job on the single
	// worker; the real job gates at n >= 20 like the drain test. The
	// hook fires only once a whole batch has been evaluated and
	// journaled to the database as one record batch, so the blocker's
	// first call already finds it quiescent — no database write of its
	// can race the armed fault and eat it.
	var blockerOnce sync.Once
	var mu sync.Mutex
	realID := ""
	isReal := func(id string) bool { mu.Lock(); defer mu.Unlock(); return id == realID }
	o, err := NewOrchestrator(Config{
		StateDir:        dir,
		Workers:         1,
		NoWarmStart:     true,
		DBFS:            inj,
		RecoverInterval: -1, // no prober: degradation must persist through the drain
		EvalHook: func(id string, n int) {
			if !isReal(id) {
				blockerOnce.Do(func() { close(blockerParked) })
				<-blockerRelease
				return
			}
			if n >= 20 {
				once.Do(func() { close(gateHit) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the worker, queue the real job while the store is healthy
	// (a degraded server sheds new submissions), then fail the store.
	// When the blocker releases, the real job starts against a
	// read-only database and must route its checkpoint to the spill
	// path from the first write.
	if _, err := o.Submit(&JobRequest{Kernel: "mm", Seed: 7, PopSize: 8, MaxIterations: 1}, "alice"); err != nil {
		t.Fatal(err)
	}
	st, err = o.Submit(req, "alice")
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	realID = st.ID
	mu.Unlock()
	select {
	case <-blockerParked:
	case <-time.After(60 * time.Second):
		t.Fatal("blocker job never parked")
	}
	degradeDB(t, o, inj)
	close(blockerRelease)
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("search never reached the gate")
	}
	// The disk stays bad through the drain: the interrupted job's record
	// is refused, and so is the recovery the drain attempts.
	for i := 0; i < 100; i++ {
		inj.Add(chaos.Fault{Op: chaos.OpWrite | chaos.OpSync | chaos.OpTruncate, Path: "wal.log"})
	}
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
	if got.State != stateInterrupted || !o.db.Health().ReadOnly {
		t.Fatalf("after drain: %s (%s), degraded %v", got.State, got.Error, o.db.Health().ReadOnly)
	}
	spills, _ := os.ReadDir(filepath.Join(dir, "spill"))
	if len(spills) != 1 {
		t.Fatalf("spill dir holds %d files, want the checkpoint", len(spills))
	}
	ckpts, _ := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if len(ckpts) != 0 {
		t.Fatalf("degraded drain wrote into the normal checkpoint dir: %v", ckpts)
	}

	// "Disk repaired": restart over the same state dir on the real
	// filesystem. The job resumes from the spilled journal, which no
	// record names: it is found by the job's ID. Resumed, the job
	// evaluates less than a search from scratch, and once done its
	// journal goes.
	var fresh atomic.Int64
	o2, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true, EvalHook: func(string, int) { fresh.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	resumed := waitTerminal(t, o2, st.ID)
	if resumed.State != StateDone {
		t.Fatalf("resumed run: %s (%s)", resumed.State, resumed.Error)
	}
	if !reflect.DeepEqual(resumed.Result.Points, want.Result.Points) {
		t.Fatalf("resumed front differs from the uninterrupted run:\ngot:  %+v\nwant: %+v",
			resumed.Result.Points, want.Result.Points)
	}
	if n := fresh.Load(); n >= int64(want.Result.Evaluations) {
		t.Fatalf("the restarted job evaluated %d configurations, the uninterrupted run %d: it did not resume", n, want.Result.Evaluations)
	}
	if spills, _ := os.ReadDir(filepath.Join(dir, "spill")); len(spills) != 0 {
		t.Fatalf("the spilled journal outlived the job that resumed from it: %v", spills)
	}
}

// TestWarmStartReadFaultFailsTheJob: a warm-started job whose database
// read hits a fault — in the scan that primes the evaluation cache or
// in the lookup of the front that seeds the population — ends failed
// with the store's error and no result. It must never end done: from a
// partly read history the search would serve a different front than the
// same request on a healthy disk, and nothing would say so. The same
// request is served again once the fault is gone.
//
// Each case runs on a fresh orchestrator over the state a cold job left
// compacted, so its warm start reads the key's history from the segment
// rather than from what the cold job left resident. The fault is placed
// by the segment reads a healthy warm start over that state makes, the
// scan's and then the front lookup's, and the residency the failed job
// leaves tells which of the two the fault hit: a failed scan keeps
// nothing, a failed front lookup comes after a scan that completed.
func TestWarmStartReadFaultFailsTheJob(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewInjector(nil)
	open := func() *Orchestrator {
		t.Helper()
		o, err := NewOrchestrator(Config{StateDir: dir, DBFS: inj})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	forced := func(o *Orchestrator) JobStatus {
		t.Helper()
		req := smallJob(1)
		req.Force = true
		st, err := o.Submit(req, "a")
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, o, st.ID)
	}
	o := open()
	if cold := forced(o); cold.State != StateDone {
		t.Fatalf("cold job: %s (%s)", cold.State, cold.Error)
	}
	// Out of the memtable, which no read fault reaches, into a segment.
	if err := o.DB().Compact(); err != nil {
		t.Fatal(err)
	}
	o.Drain()

	reads := &segReads{FS: chaos.OS{}}
	db, err := tunedb.OpenFS(filepath.Join(dir, "tunedb"), reads)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := db.ScanKeys("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("the cold job stored keys %v (%v), want one", keys, err)
	}
	ce := objective.NewCachingEvaluator([]string{"time", "resources"}, 1, func(skeleton.Config) []float64 { return nil })
	reads.n.Store(0)
	if primed, err := db.Warm(keys[0], ce); err != nil || primed == 0 {
		t.Fatalf("healthy warm start: %d primed, %v", primed, err)
	}
	scanReads := int(reads.n.Load())
	if _, ok := db.Front(keys[0]); !ok {
		t.Fatal("healthy warm start: no stored front")
	}
	frontReads := int(reads.n.Load()) - scanReads
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if scanReads == 0 || frontReads == 0 {
		t.Fatalf("a healthy warm start makes %d segment reads to scan and %d to look the front up: the cases would test nothing", scanReads, frontReads)
	}
	t.Logf("a healthy warm start makes %d segment reads to scan and %d to look the front up", scanReads, frontReads)

	for i, tc := range []struct {
		after   int
		what    string
		scanned bool
	}{{0, "the evaluation scan", false}, {scanReads, "the front lookup", true}} {
		o := open()
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg", After: tc.after})
		st := forced(o)
		if st.State != StateFailed || !strings.Contains(st.Error, chaos.ErrInjected.Error()) || !strings.Contains(st.Error, "warm start") {
			t.Fatalf("read fault in %s: job ended %s (%q), want failed with the injected error", tc.what, st.State, st.Error)
		}
		if st.Result != nil {
			t.Fatalf("read fault in %s: the failed job carries a result", tc.what)
		}
		if inj.Injected() != i+1 {
			t.Fatalf("read fault in %s: %d faults have fired, want %d", tc.what, inj.Injected(), i+1)
		}
		records, _, fromScan := o.DB().Residency()
		if scanned := records > 0 && fromScan == 1; scanned != tc.scanned {
			t.Fatalf("read fault in %s: %d records resident after %d completed scans: the fault hit another read", tc.what, records, fromScan)
		}
		o.Drain()
	}
	o = open()
	defer o.Drain()
	if warm := forced(o); warm.State != StateDone || warm.Result == nil {
		t.Fatalf("warm job on a healthy disk: %s (%s)", warm.State, warm.Error)
	}
}

// segReads is a pass-through filesystem that counts the reads of
// segment files.
type segReads struct {
	chaos.FS
	n atomic.Int64
}

type segReadsFile struct {
	chaos.File
	n *atomic.Int64
}

func (c *segReads) Open(name string) (chaos.File, error) {
	f, err := c.FS.Open(name)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return f, err
	}
	return &segReadsFile{File: f, n: &c.n}, nil
}

func (f *segReadsFile) ReadAt(p []byte, off int64) (int, error) {
	f.n.Add(1)
	return f.File.ReadAt(p, off)
}

// storedState reads the state a job's record in the database says.
func storedState(t *testing.T, db *tunedb.DB, id string) JobState {
	t.Helper()
	var state JobState
	err := db.Jobs(func(got string, data []byte) error {
		var rec jobRecord
		if got == id {
			err := json.Unmarshal(data, &rec)
			state = rec.State
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestJobRecordSubmitWriteFails: a submission whose record the database
// refuses — ENOSPC in the middle of the WAL append — is shed with 503 and
// the Retry-After hint, and nothing of it is left: not in the listing,
// not after a restart.
func TestJobRecordSubmitWriteFails(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewInjector(nil, chaos.Fault{Op: chaos.OpWrite, Path: "wal.log", Err: chaos.ENOSPC, TornBytes: 7})
	o, err := NewOrchestrator(Config{StateDir: dir, DBFS: inj, RecoverInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(o).Handler())
	c := &Client{BaseURL: hs.URL}
	_, err = c.Submit(context.Background(), smallJob(1))
	if StatusCode(err) != http.StatusServiceUnavailable || retryAfter(err) != 10*time.Second {
		t.Fatalf("submit whose record is refused: %v (Retry-After %v), want 503 after 10s", err, retryAfter(err))
	}
	if inj.Injected() != 1 {
		t.Fatalf("%d faults fired, want the one on the record's write", inj.Injected())
	}
	if jobs := o.List(); len(jobs) != 0 {
		t.Fatalf("the refused submission is listed: %+v", jobs)
	}
	hs.Close()
	o.Drain()
	o2, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	if jobs := o2.List(); len(jobs) != 0 {
		t.Fatalf("the refused submission came back after a restart: %+v", jobs)
	}
}

// TestJobRecordTerminalWriteFails: a job whose final record the database
// refuses still ends done, /healthz says degraded, and its journal stays
// for a restart to resume from. Once the fault has cleared, the record
// is written again — by the recovery prober's probe, or by the one a
// drain makes before it closes the database — the journal goes, and a
// restarted server serves the front and the evaluation count of a
// fault-free run.
func TestJobRecordTerminalWriteFails(t *testing.T) {
	req := smallJob(5)
	ctx := context.Background()
	_, _, refc := newTestServer(t, Config{NoWarmStart: true})
	st, err := refc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refc.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil || want.State != StateDone {
		t.Fatalf("reference run: %+v, %v", want, err)
	}
	wantFront, err := refc.Front(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, by := range []string{"probe", "drain"} {
		t.Run(by, func(t *testing.T) {
			dir := t.TempDir()
			inj := chaos.NewInjector(nil)
			o, err := NewOrchestrator(Config{StateDir: dir, NoWarmStart: true, DBFS: inj, RecoverInterval: -1, EvalHook: func(_ string, n int) {
				if n == want.Evaluations {
					// Every evaluation is journaled: the WAL writes left
					// are the stored front's and then the job's final
					// record. Fail the second.
					inj.Add(chaos.Fault{Op: chaos.OpWrite, Path: "wal.log", After: 1})
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(New(o).Handler())
			defer hs.Close()
			c := &Client{BaseURL: hs.URL}
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if got := waitTerminal(t, o, st.ID); got.State != StateDone {
				t.Fatalf("job whose final record is refused: %s (%s), want done", got.State, got.Error)
			}
			if inj.Injected() != 1 {
				t.Fatalf("faults fired: %v, want the one on the final record's write", inj.Log())
			}
			if status, err := c.Healthz(ctx); err != nil || status != "degraded" {
				t.Fatalf("healthz after the refused record = %q, %v", status, err)
			}
			if got := storedState(t, o.DB(), st.ID); got != StateRunning {
				t.Fatalf("the database holds the job as %s, want the running record before the refused one", got)
			}
			journal := filepath.Join(dir, "checkpoints", st.ID+".ckpt")
			if _, err := os.Stat(journal); err != nil {
				t.Fatalf("the journal of a job whose final record is refused: %v", err)
			}
			inj.Clear()
			if by == "probe" {
				o.probe()
				if status, err := c.Healthz(ctx); err != nil || status != "ok" {
					t.Fatalf("healthz after recovery = %q, %v", status, err)
				}
			}
			o.Drain()
			db, err := tunedb.Open(filepath.Join(dir, "tunedb"))
			if err != nil {
				t.Fatal(err)
			}
			state := storedState(t, db, st.ID)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if state != StateDone {
				t.Fatalf("after the %s the database holds the job as %s, want done", by, state)
			}
			if _, err := os.Stat(journal); !os.IsNotExist(err) {
				t.Fatalf("the journal of a job stored as done: %v, want it gone", err)
			}

			_, _, c2 := newTestServer(t, Config{StateDir: dir})
			got, err := c2.Status(ctx, st.ID)
			if err != nil || got.State != StateDone || got.Evaluations != want.Evaluations {
				t.Fatalf("after a restart: %+v, %v; want done with %d evaluations", got, err, want.Evaluations)
			}
			if front, err := c2.Front(ctx, st.ID); err != nil || !bytes.Equal(front, wantFront) {
				t.Fatalf("after a restart the front is\n%s (%v)\nwant the fault-free\n%s", front, err, wantFront)
			}
		})
	}
}

// TestJobRecordFilesRefused: a state directory that keeps its job
// records as files under jobs/ is refused by name, with the last commit
// that reads it, and left as it was.
func TestJobRecordFilesRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "jobs", "j000000.json")
	const rec = `{"id":"j000000","tenant":"alice","request":{"kernel":"mm"},"state":"queued","dedup_key":"k","submitted_unix":1}`
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewOrchestrator(Config{StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "jobs/") || !strings.Contains(err.Error(), "ceac529") {
		t.Fatalf("a jobs/*.json state directory: %v, want a refusal naming jobs/ and commit ceac529", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the refusal created %v beside jobs/", entries)
	}
	if data, err := os.ReadFile(old); err != nil || string(data) != rec {
		t.Fatalf("the refusal touched %s: %q, %v", old, data, err)
	}
}
