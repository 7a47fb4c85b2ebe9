package autotune_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autotune"
	"autotune/internal/export"
	"autotune/internal/server"
)

// TestServiceEndToEnd is the tuning-service acceptance test: a real
// HTTP server on an ephemeral port takes concurrent submissions from
// several tenants, deduplicates identical searches, enforces tenant
// quotas, and serves fronts that are byte-identical to direct library
// runs at the same seed. Run it under -race; every client goroutine
// hits the orchestrator concurrently.
func TestServiceEndToEnd(t *testing.T) {
	var block atomic.Bool
	release := make(chan struct{})
	orch, err := server.NewOrchestrator(server.Config{
		StateDir:            t.TempDir(),
		Workers:             4,
		MaxQueuedPerTenant:  2,
		MaxRunningPerTenant: 1,
		EvalHook: func(id string, n int) {
			if block.Load() {
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.New(orch).Serve(ctx, l) }()
	defer func() {
		// Six submissions at once can leave the client holding a
		// connection it dialled and never used; the server counts one
		// that has not sent a request as active for five seconds —
		// all of its shutdown grace.
		http.DefaultClient.CloseIdleConnections()
		cancel()
		select {
		case err := <-serveErr:
			if err != nil && err != http.ErrServerClosed {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Error("server never shut down")
		}
	}()
	c := &server.Client{BaseURL: "http://" + l.Addr().String()}

	// Phase 1: three search groups (one kernel + seed each), submitted
	// twice by different tenants at the same time. Each pair must
	// collapse onto one search and both submitters must read the same
	// front.
	groups := []struct {
		kernel string
		seed   int64
	}{
		{"mm", 100},
		{"2mm", 101},
		{"atax", 102},
	}
	req := func(g int) *server.JobRequest {
		return &server.JobRequest{
			Kernel: groups[g].kernel, Seed: groups[g].seed,
			PopSize: 8, MaxIterations: 2,
		}
	}
	type submission struct {
		st  server.JobStatus
		err error
	}
	subs := make([]submission, 2*len(groups))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req(i % len(groups))
			r.Tenant = fmt.Sprintf("tenant-%d", i)
			subs[i].st, subs[i].err = c.Submit(context.Background(), r)
		}(i)
	}
	wg.Wait()
	deduped := 0
	for i, s := range subs {
		if s.err != nil {
			t.Fatalf("submission %d: %v", i, s.err)
		}
		if s.st.Deduped {
			deduped++
		}
		if pair := subs[(i+len(groups))%len(subs)]; s.st.ID != pair.st.ID {
			t.Fatalf("identical submissions got distinct searches: %s vs %s", s.st.ID, pair.st.ID)
		}
	}
	if deduped != len(groups) {
		t.Fatalf("deduped %d of %d identical submissions, want %d", deduped, len(subs), len(groups))
	}

	// Every group's served front must equal the direct library export
	// at the same seed, byte for byte; both submitters of a pair read
	// identical bytes by construction (same job).
	for g, grp := range groups {
		wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
		st, err := c.Wait(wctx, subs[g].st.ID, 20*time.Millisecond)
		wcancel()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != server.StateDone {
			t.Fatalf("group %d: %s (%s)", g, st.State, st.Error)
		}
		served, err := c.Front(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := autotune.Tune(grp.kernel,
			autotune.WithMachine("Westmere"),
			autotune.WithMethod(autotune.RSGDE3),
			autotune.WithSeed(grp.seed),
			autotune.WithOptimizerOptions(autotune.OptimizerOptions{
				PopSize: 8, MaxIterations: 2, Seed: grp.seed,
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		var direct bytes.Buffer
		if err := export.FrontJSON(&direct, res.Front, res.Unit.ObjectiveNames); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, direct.Bytes()) {
			t.Fatalf("group %d (%s seed %d): served front differs from the direct library run:\nserved:\n%s\ndirect:\n%s",
				g, grp.kernel, grp.seed, served, direct.Bytes())
		}
	}

	// Phase 2: quota enforcement. Stall evaluations so tenant "q"'s
	// first job occupies its single running slot, fill its queue to the
	// cap, and require a 429 on the overflow — while another tenant
	// remains unaffected.
	block.Store(true)
	qreq := func(seed int64) *server.JobRequest {
		return &server.JobRequest{Kernel: "mm", Seed: seed, PopSize: 8, MaxIterations: 2, Tenant: "q"}
	}
	first, err := c.Submit(context.Background(), qreq(900))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(context.Background(), first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == server.StateRunning {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatalf("quota job never started (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for seed := int64(901); seed <= 902; seed++ {
		if _, err := c.Submit(context.Background(), qreq(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if _, err := c.Submit(context.Background(), qreq(903)); server.StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %v", err)
	}
	other := qreq(903)
	other.Tenant = "unrelated"
	last, err := c.Submit(context.Background(), other)
	if err != nil {
		t.Fatalf("other tenant hit by q's quota: %v", err)
	}
	block.Store(false)
	close(release)
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	if _, err := c.Wait(wctx, last.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
