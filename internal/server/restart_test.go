package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"autotune/internal/optimizer"
	"autotune/internal/resilience"
)

var update = flag.Bool("update", false, "rewrite testdata/restart.json and testdata/metrics.txt from the current code")

// writeForeignJournal writes at path a complete checkpoint journal that
// was written for another problem: a job resuming from it fails.
func writeForeignJournal(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	cp, err := resilience.CreateCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(&optimizer.Snapshot{Method: "rs-gde3", Problem: "0123456789abcdef", States: []optimizer.IslandState{{}}}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

// restartPin is what one drain and restart of a server leaves visible.
type restartPin struct {
	// AfterDrain is every job's state once the first server has drained.
	AfterDrain []string `json:"after_drain"`
	// Final is List() of the restarted server once every job is terminal.
	Final []JobStatus `json:"final"`
	// Fronts holds, per job, the SHA-256 of what GET /v1/jobs/{id}/front
	// answers, or the HTTP status of a job without a front.
	Fronts map[string]string `json:"fronts"`
	// Resubmit is what submitting each request again answers.
	Resubmit []JobStatus `json:"resubmit"`
}

// restartScript runs one server over a fresh state directory through
// four jobs — one that finishes, one that fails on a checkpoint journal
// written for another problem, one drained mid-search with a checkpoint
// and one still queued at the drain — then restarts over the same
// directory, lets every job end and reports what the restarted server
// serves.
func restartScript(t *testing.T) restartPin {
	dir := t.TempDir()
	reqs := []*JobRequest{
		smallJob(1),
		smallJob(2),
		{Kernel: "mm", Seed: 42, PopSize: 8, MaxIterations: 3},
		smallJob(3),
	}
	const foreignID, drainedID = "j000001", "j000002"
	writeForeignJournal(t, filepath.Join(dir, "checkpoints", foreignID+".ckpt"))
	// The drained job stalls once its second generation is evaluated, so
	// its journal holds a complete snapshot; the single worker keeps the
	// last job queued behind it.
	var once sync.Once
	gateHit, release := make(chan struct{}), make(chan struct{})
	o, err := NewOrchestrator(Config{StateDir: dir, Workers: 1, NoWarmStart: true, EvalHook: func(id string, n int) {
		if id == drainedID && n >= 20 {
			once.Do(func() { close(gateHit) })
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		st, err := o.Submit(r, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("j%06d", i); st.ID != want {
			t.Fatalf("job %d got ID %s, want %s", i, st.ID, want)
		}
	}
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("the drained job never reached the gate")
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
	var pin restartPin
	for _, st := range o.List() {
		pin.AfterDrain = append(pin.AfterDrain, st.ID+" "+string(st.State))
	}

	o2, err := NewOrchestrator(Config{StateDir: dir, Workers: 1, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Drain()
	hs := httptest.NewServer(New(o2).Handler())
	defer hs.Close()
	c := &Client{BaseURL: hs.URL}
	pin.Fronts = map[string]string{}
	for i := range reqs {
		id := fmt.Sprintf("j%06d", i)
		waitTerminal(t, o2, id)
		front, err := c.Front(context.Background(), id)
		if err != nil {
			pin.Fronts[id] = fmt.Sprintf("HTTP %d", StatusCode(err))
			continue
		}
		pin.Fronts[id] = fmt.Sprintf("%x", sha256.Sum256(front))
	}
	pin.Final = o2.List()
	for _, r := range reqs {
		st, err := o2.Submit(r, "bob")
		if err != nil {
			t.Fatal(err)
		}
		pin.Resubmit = append(pin.Resubmit, st)
	}
	return pin
}

// TestRestartPinned holds what a drain and a restart leave of four jobs
// in every state — statuses, fronts, evaluation counts and dedup answers
// — byte-identical to testdata/restart.json, at GOMAXPROCS 1 and 4.
// -update regenerates it.
func TestRestartPinned(t *testing.T) {
	const path = "testdata/restart.json"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			data, err := json.MarshalIndent(restartScript(t), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(want) {
				t.Errorf("a drain and restart differ from %s:\n%s", path, data)
			}
		})
	}
}
