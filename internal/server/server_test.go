package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"autotune/internal/chaos"
	"autotune/internal/driver"
	"autotune/internal/export"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
)

// newTestServer wires an orchestrator to an ephemeral HTTP server and
// returns a client against it.
func newTestServer(t *testing.T, cfg Config) (*Orchestrator, *httptest.Server, *Client) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	o, err := NewOrchestrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(o).Handler())
	t.Cleanup(func() {
		ts.Close()
		o.Drain()
	})
	return o, ts, &Client{BaseURL: ts.URL}
}

// TestServerFrontByteIdenticalToLibrary is the service's core
// correctness claim: the front served over HTTP for a fixed seed is
// byte-for-byte the JSON a direct library run of the same request
// exports.
func TestServerFrontByteIdenticalToLibrary(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, &JobRequest{Kernel: "mm", Seed: 5, PopSize: 8, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	fin, err := c.Wait(wctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job %s: %s (%s)", st.ID, fin.State, fin.Error)
	}
	served, err := c.Front(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	res, err := driver.TuneKernel("mm", driver.Options{
		Machine:   machine.Westmere(),
		Optimizer: optimizer.Options{PopSize: 8, MaxIterations: 2, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := export.FrontJSON(&direct, res.Result.Front, res.Unit.ObjectiveNames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, direct.Bytes()) {
		t.Fatalf("served front differs from direct library export:\nserved:\n%s\ndirect:\n%s",
			served, direct.Bytes())
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"broken json", `{"kernel":`, http.StatusBadRequest},
		{"unknown kernel", `{"kernel":"nope"}`, http.StatusBadRequest},
		{"unknown method", `{"kernel":"mm","method":"nope"}`, http.StatusBadRequest},
		{"oversized body", `{"source":"` + strings.Repeat("x", MaxRequestBytes+1) + `"}`, http.StatusRequestEntityTooLarge},
		// What the driver would refuse once the job ran is refused at
		// submit: these three used to get a 202 and end failed.
		{"islands on random", `{"kernel":"mm","method":"random","islands":4}`, http.StatusBadRequest},
		{"islands on motpe", `{"kernel":"mm","method":"motpe","islands":4}`, http.StatusBadRequest},
		{"surrogate on brute-force", `{"kernel":"mm","method":"brute-force","surrogate":true}`, http.StatusBadRequest},
	} {
		resp := post(tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		var ae apiError
		if err := readJSON(resp, &ae); err != nil || ae.Error == "" {
			t.Errorf("%s: no structured error payload (%v)", tc.name, err)
		}
	}
	// A rejected request is not a job: no id, no queue slot, nothing
	// charged to a tenant.
	if text, err := c.Metrics(context.Background()); err != nil || !strings.Contains(text, "tuned_jobs_submitted_total 0") {
		t.Errorf("rejected requests were counted as submissions (%v):\n%s", err, text)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j000000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("first job id after rejected requests: HTTP %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestClientErrorsAreOneShape: every client call answers a non-2xx
// response with the same apiStatusError — the status, the server's
// message and its Retry-After hint — /front and /metrics included.
func TestClientErrorsAreOneShape(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "4")
		writeError(w, http.StatusServiceUnavailable, errDegraded)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	want := &apiStatusError{Code: http.StatusServiceUnavailable, Msg: errDegraded.Error(), RetryAfter: 4 * time.Second}
	for name, call := range map[string]func() error{
		"submit":  func() error { _, err := c.Submit(ctx, smallJob(1)); return err },
		"list":    func() error { _, err := c.List(ctx); return err },
		"status":  func() error { _, err := c.Status(ctx, "j000000"); return err },
		"front":   func() error { _, err := c.Front(ctx, "j000000"); return err },
		"drain":   func() error { return c.Drain(ctx) },
		"healthz": func() error { _, err := c.Healthz(ctx); return err },
		"metrics": func() error { _, err := c.Metrics(ctx); return err },
	} {
		if err := call(); !reflect.DeepEqual(err, want) {
			t.Errorf("%s: %#v, want %#v", name, err, want)
		}
	}
}

func readJSON(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestServerQuotaAndUnfinishedFront(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	_, _, c := newTestServer(t, Config{
		Workers:            1,
		MaxQueuedPerTenant: 1,
		EvalHook: func(id string, n int) {
			if id == "j000000" {
				<-release
			}
		},
	})
	ctx := context.Background()
	running, err := c.Submit(ctx, smallJob(30))
	if err != nil {
		t.Fatal(err)
	}
	// The gated job has no front yet: asking for one is a conflict,
	// not an error.
	if _, err := c.Front(ctx, running.ID); StatusCode(err) != http.StatusConflict {
		t.Fatalf("front of unfinished job: %v", err)
	}
	if _, err := c.Submit(ctx, smallJob(31)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, smallJob(32))
	if StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %v", err)
	}
	close(release)
}

func TestServerMetricsAndHealthz(t *testing.T) {
	_, _, c := newTestServer(t, Config{})
	ctx := context.Background()
	if status, err := c.Healthz(ctx); err != nil || status != "ok" {
		t.Fatalf("healthz: %q, %v", status, err)
	}
	st, err := c.Submit(ctx, smallJob(40))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tuned_jobs{state="done"} 1`,
		"tuned_jobs_submitted_total 1",
		"tuned_evaluations_total",
		"tuned_evals_per_sec",
		"tuned_dedup_hit_rate",
		"tuned_draining 0",
		`tuned_warm_starts_total{source="resident"} 0`,
		`tuned_warm_starts_total{source="scan"} 1`,
		"tuned_resident_records ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerEvents exercises the SSE stream: it must terminate with a
// `done` event carrying the job's terminal status.
func TestServerEvents(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, smallJob(50))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var sawStatus, sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); line {
		case "event: status":
			sawStatus = true
		case "event: done":
			sawDone = true
		}
	}
	if !sawStatus || !sawDone {
		t.Fatalf("stream missing events: status=%v done=%v", sawStatus, sawDone)
	}
}

func TestServerDrainEndpoint(t *testing.T) {
	_, ts, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := c.Healthz(ctx)
		if err == nil && status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last %q, %v)", status, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, err := c.Submit(ctx, smallJob(60))
	if StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v", err)
	}
	_ = ts
}

// TestServeLifecycle drives the full Serve loop on a real listener:
// the API answers, a drain over the API shuts the server down, and
// Serve returns cleanly.
func TestServeLifecycle(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- New(o).Serve(context.Background(), l) }()
	ctx := context.Background()
	c := &Client{BaseURL: "http://" + l.Addr().String()}
	st, err := c.Submit(ctx, smallJob(70))
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.Wait(wctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("list: %+v", jobs)
	}
	if o.DB() == nil {
		t.Fatal("orchestrator exposes no tuning database")
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve never returned after drain")
	}
}

// slowRenameFS is the real filesystem with every rename and truncate
// slowed down, so that closing the database — which flushes memtables
// into segments and truncates WALs — takes long enough for anything
// that returns before it ends to be seen returning early.
type slowRenameFS struct{ chaos.OS }

func (fs slowRenameFS) Rename(oldpath, newpath string) error {
	time.Sleep(50 * time.Millisecond)
	return fs.OS.Rename(oldpath, newpath)
}

func (fs slowRenameFS) Truncate(name string, size int64) error {
	time.Sleep(50 * time.Millisecond)
	return fs.OS.Truncate(name, size)
}

// snapshotDir reads every file under dir into a map from relative path
// to contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeReturnsOnlyOnceTheStateIsPersisted: however the drain
// starts — POST /v1/drain, the context Serve was given (SIGTERM in
// cmd/tuned), or both — Serve returns only after the database is
// closed, so the state directory does not change once it has returned.
// An API drain runs Drain in the handler's goroutine and Serve calls it
// a second time; the second call must wait for the first one's close.
func TestServeReturnsOnlyOnceTheStateIsPersisted(t *testing.T) {
	for _, via := range []string{"api", "context", "both"} {
		t.Run(via, func(t *testing.T) {
			dir := t.TempDir()
			o, err := NewOrchestrator(Config{StateDir: dir, DBFS: slowRenameFS{}})
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			serveErr := make(chan error, 1)
			go func() { serveErr <- New(o).Serve(ctx, l) }()
			c := &Client{BaseURL: "http://" + l.Addr().String()}
			st, err := c.Submit(ctx, smallJob(71))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Wait(ctx, st.ID, 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if via != "context" {
				if err := c.Drain(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if via != "api" {
				cancel()
			}
			select {
			case err := <-serveErr:
				if err != nil && !errors.Is(err, http.ErrServerClosed) {
					t.Fatalf("serve: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("Serve never returned after the drain")
			}
			returned := snapshotDir(t, dir)
			time.Sleep(500 * time.Millisecond)
			if later := snapshotDir(t, dir); !reflect.DeepEqual(later, returned) {
				var changed []string
				for name, data := range later {
					if returned[name] != data {
						changed = append(changed, name)
					}
				}
				for name := range returned {
					if _, ok := later[name]; !ok {
						changed = append(changed, name+" (removed)")
					}
				}
				sort.Strings(changed)
				t.Fatalf("the state directory changed after Serve returned: %v", changed)
			}
		})
	}
}

// TestServeListenerErrorLeavesNoGoroutine: Serve on a listener closed
// under it returns the listener's error, and nothing it started outlives
// it, although neither its context ends nor a drain starts.
func TestServeListenerErrorLeavesNoGoroutine(t *testing.T) {
	o, err := NewOrchestrator(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	serveErr := make(chan error, 1)
	go func() { serveErr <- New(o).Serve(context.Background(), l) }()
	l.Close()
	select {
	case err := <-serveErr:
		if err == nil || errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("Serve on a closed listener returned %v, want the listener's error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve never returned after its listener closed")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Serve returned, %d before it:\n%s",
				runtime.NumGoroutine(), baseline, stacks[:runtime.Stack(stacks, true)])
		}
	}
}
