package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"autotune/internal/server"
)

// syncBuffer is a mutex-guarded buffer: the serve goroutine writes
// while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunUsageAndErrors(t *testing.T) {
	ctx := context.Background()
	var out, errb bytes.Buffer
	if code := run(ctx, nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if code := run(ctx, []string{"bogus"}, &out, &errb); code != 2 {
		t.Fatalf("unknown command: exit %d", code)
	}
	if code := run(ctx, []string{"help"}, &out, &errb); code != 0 {
		t.Fatalf("help: exit %d", code)
	}
	if !strings.Contains(out.String(), "tuned serve") {
		t.Fatalf("help text missing serve usage:\n%s", out.String())
	}
	// A client command against a dead server is an error, not a hang.
	if code := run(ctx, []string{"status", "-server", "http://127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Fatalf("dead server: exit %d", code)
	}
	if code := run(ctx, []string{"front", "-server", "http://127.0.0.1:1"}, &out, &errb); code != 1 {
		t.Fatalf("front without -id: exit %d\n%s", code, errb.String())
	}
}

// startServe launches `tuned serve` in-process on an ephemeral port
// and returns the base URL plus the command's exit-code channel.
func startServe(t *testing.T, state string, hook func(*server.Config)) (string, chan int) {
	t.Helper()
	addrc := make(chan net.Addr, 1)
	notifyListening = func(a net.Addr) { addrc <- a }
	serveConfigHook = hook
	t.Cleanup(func() { notifyListening = nil; serveConfigHook = nil })
	exit := make(chan int, 1)
	var out syncBuffer
	go func() {
		exit <- run(context.Background(),
			[]string{"serve", "-addr", "127.0.0.1:0", "-state", state, "-workers", "1", "-no-warm"},
			&out, io.Discard)
	}()
	select {
	case a := <-addrc:
		return "http://" + a.String(), exit
	case code := <-exit:
		t.Fatalf("serve exited early with %d:\n%s", code, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("serve never started listening")
	}
	return "", nil
}

// cliFront fetches a job's front through the CLI client and returns
// the raw bytes it printed.
func cliFront(t *testing.T, url, id string) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"front", "-server", url, "-id", id}, &out, &errb); code != 0 {
		t.Fatalf("front: exit %d\n%s", code, errb.String())
	}
	return out.Bytes()
}

// TestServeSIGTERMDrainResume is the CLI-level acceptance test: a
// SIGTERM mid-search drains the server gracefully (the search
// checkpoints), and a restarted `tuned serve` over the same state
// directory resumes the job to the front an uninterrupted server
// produces, byte for byte.
func TestServeSIGTERMDrainResume(t *testing.T) {
	ctx := context.Background()
	submitArgs := func(url string, wait bool) []string {
		args := []string{"submit", "-server", url, "-kernel", "mm", "-seed", "7",
			"-pop", "24", "-iterations", "40", "-stagnation", "40"}
		if wait {
			args = append(args, "-wait", "-poll", "10ms")
		}
		return args
	}

	// Reference: the same job on a fresh server, uninterrupted.
	refURL, refExit := startServe(t, t.TempDir(), nil)
	var out, errb bytes.Buffer
	if code := run(ctx, submitArgs(refURL, true), &out, &errb); code != 0 {
		t.Fatalf("reference submit: exit %d\n%s", code, errb.String())
	}
	id := strings.Fields(out.String())[0]
	refFront := cliFront(t, refURL, id)
	if code := run(ctx, []string{"drain", "-server", refURL}, &out, &errb); code != 0 {
		t.Fatalf("drain: exit %d\n%s", code, errb.String())
	}
	select {
	case <-refExit:
	case <-time.After(60 * time.Second):
		t.Fatal("reference server never exited after drain")
	}

	// Interrupted run: stall the search once it is past the first full
	// generation (the hook reaches a count when the batch holding that
	// evaluation is done, before the generation is checkpointed) so the
	// SIGTERM lands mid-search with a complete checkpoint snapshot on
	// disk.
	state := t.TempDir()
	var once sync.Once
	gateHit := make(chan struct{})
	release := make(chan struct{})
	url, exit := startServe(t, state, func(cfg *server.Config) {
		cfg.EvalHook = func(jobID string, n int) {
			if n >= 50 {
				once.Do(func() { close(gateHit) })
				<-release
			}
		}
	})
	if code := run(ctx, submitArgs(url, false), &out, &errb); code != 0 {
		t.Fatalf("submit: exit %d\n%s", code, errb.String())
	}
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("search never reached the gate")
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait for the drain to cancel the running search before letting
	// the stalled evaluations go.
	c := &server.Client{BaseURL: url}
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, err := c.Healthz(ctx)
		if err == nil && status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last %q, %v)", status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("SIGTERM drain exited with %d", code)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server never exited after SIGTERM")
	}

	// Restart over the same state: the interrupted job resumes from
	// its checkpoint and finishes.
	url2, exit2 := startServe(t, state, nil)
	c2 := &server.Client{BaseURL: url2}
	wctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	st, err := c2.Wait(wctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	got := cliFront(t, url2, id)
	if !bytes.Equal(got, refFront) {
		t.Fatalf("resumed front differs from the uninterrupted server's:\nresumed:\n%s\nreference:\n%s", got, refFront)
	}
	out.Reset()
	if code := run(ctx, []string{"status", "-server", url2}, &out, &errb); code != 0 {
		t.Fatalf("status list: exit %d\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), id) || !strings.Contains(out.String(), "done") {
		t.Fatalf("status listing missing the finished job:\n%s", out.String())
	}
	if code := run(ctx, []string{"drain", "-server", url2}, &out, &errb); code != 0 {
		t.Fatalf("final drain: exit %d\n%s", code, errb.String())
	}
	select {
	case <-exit2:
	case <-time.After(60 * time.Second):
		t.Fatal("restarted server never exited after drain")
	}
}
