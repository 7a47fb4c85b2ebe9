package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestWarmStartAndDedupOnStoreEngine is the end-to-end check that the
// tuned server's behavior is unchanged on the LSM-backed database:
// dedup still coalesces identical searches, and a forced re-run warm
// starts from the sharded store (point-gets priming the cache) so it
// pays far fewer real evaluations — including after a full server
// restart, which reopens the store from segment metadata.
func TestWarmStartAndDedupOnStoreEngine(t *testing.T) {
	dir := t.TempDir()
	o, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	cold, err := o.Submit(smallJob(7), "alice")
	if err != nil {
		t.Fatal(err)
	}
	coldSt := waitTerminal(t, o, cold.ID)
	if coldSt.State != StateDone {
		t.Fatalf("cold run: %s %q", coldSt.State, coldSt.Error)
	}
	if coldSt.Evaluations <= 0 {
		t.Fatalf("cold run evaluated nothing: %+v", coldSt)
	}

	// The shared database is the sharded store engine, not a journal.
	if _, err := os.Stat(filepath.Join(dir, "tunedb", "store", "meta.json")); err != nil {
		t.Fatalf("store engine not in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "tunedb", "journal.jsonl")); !os.IsNotExist(err) {
		t.Fatal("v1 journal written by new engine")
	}

	// Dedup coalesces an identical search (different tenant).
	dup, err := o.Submit(smallJob(7), "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != cold.ID || dup.Result == nil {
		t.Fatalf("dedup broken on store engine: %+v", dup)
	}

	// A forced identical re-run warm starts: the cache is primed by
	// point-gets against the store, so nearly every evaluation is free.
	forced := smallJob(7)
	forced.Force = true
	warm, err := o.Submit(forced, "alice")
	if err != nil {
		t.Fatal(err)
	}
	warmSt := waitTerminal(t, o, warm.ID)
	if warmSt.State != StateDone {
		t.Fatalf("warm run: %s %q", warmSt.State, warmSt.Error)
	}
	if warmSt.Evaluations >= coldSt.Evaluations {
		t.Fatalf("warm start paid full price: cold %d, warm %d evaluations",
			coldSt.Evaluations, warmSt.Evaluations)
	}
	o.Drain()

	// Restart the server on the same state: the store reopens from
	// segment metadata and the warm start must work identically.
	o2, err := NewOrchestrator(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	forced2 := smallJob(7)
	forced2.Force = true
	again, err := o2.Submit(forced2, "alice")
	if err != nil {
		t.Fatal(err)
	}
	againSt := waitTerminal(t, o2, again.ID)
	if againSt.State != StateDone {
		t.Fatalf("post-restart warm run: %s %q", againSt.State, againSt.Error)
	}
	if againSt.Evaluations >= coldSt.Evaluations {
		t.Fatalf("warm start lost across restart: cold %d, warm %d evaluations",
			coldSt.Evaluations, againSt.Evaluations)
	}
}

// servedJob is what a client sees of one finished job.
type servedJob struct {
	front       string
	evaluations int
	iterations  int
}

// serveJobs runs the requests one after another on a server over
// stateDir and reports, beside what it served, how many of the warm
// starts read a resident history and how many scanned the store.
func serveJobs(t *testing.T, stateDir string, reqs ...*JobRequest) (served []servedJob, fromResident, fromScan uint64) {
	t.Helper()
	o, err := NewOrchestrator(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(o).Handler())
	defer o.Drain()
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, req := range reqs {
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID, 5*time.Millisecond)
		if err != nil || fin.State != StateDone {
			t.Fatalf("seed %d: state %s, error %q (%v)", req.Seed, fin.State, fin.Error, err)
		}
		front, err := c.Front(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		served = append(served, servedJob{string(front), fin.Result.Evaluations, fin.Result.Iterations})
	}
	_, fromResident, fromScan = o.DB().Residency()
	return served, fromResident, fromScan
}

// TestResidentWarmJobsMatchRestartedServer: three warm-started jobs on
// one key through one server — the first scans the key, the second and
// third start from the history the database kept and the jobs before
// them wrote through — serve the fronts and evaluation counts of the
// same three jobs with the server restarted between them, where every
// warm start is a scan. With the surrogate on, the order the history
// is handed over in is part of the result. At GOMAXPROCS 1 and 4.
func TestResidentWarmJobsMatchRestartedServer(t *testing.T) {
	for name, req := range map[string]JobRequest{
		"default":   {Kernel: "mm"},
		"surrogate": {Kernel: "mm", Energy: true, Surrogate: true, ScreenTopK: 4},
	} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var reqs []*JobRequest
				for seed := int64(1); seed <= 3; seed++ {
					r := req
					r.Seed = seed
					reqs = append(reqs, &r)
				}
				oneLifetime, fromResident, fromScan := serveJobs(t, t.TempDir(), reqs...)
				if fromResident != 2 || fromScan != 1 {
					t.Fatalf("one server: %d warm starts from a resident history, %d from a scan; want 2 and 1", fromResident, fromScan)
				}
				restarted := t.TempDir()
				for i, r := range reqs {
					served, fromResident, fromScan := serveJobs(t, restarted, r)
					if fromResident != 0 || fromScan != 1 {
						t.Fatalf("restarted server, job %d: %d warm starts from a resident history, %d from a scan; want 0 and 1", i, fromResident, fromScan)
					}
					if served[0] != oneLifetime[i] {
						t.Errorf("job %d: one server served %d evaluations, %d iterations, a restarted one %d and %d, or another front:\n%s\n%s",
							i, oneLifetime[i].evaluations, oneLifetime[i].iterations, served[0].evaluations, served[0].iterations, oneLifetime[i].front, served[0].front)
					}
				}
				if oneLifetime[1].evaluations >= oneLifetime[0].evaluations {
					t.Fatalf("the second job paid %d evaluations, the first %d: nothing was warm-started", oneLifetime[1].evaluations, oneLifetime[0].evaluations)
				}
			})
		}
	}
}
