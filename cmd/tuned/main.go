// Command tuned is the multi-tenant tuning service: a long-running
// HTTP server that schedules concurrent auto-tuning searches over a
// bounded worker pool, plus the matching command-line client.
//
// Server:
//
//	tuned serve -addr 127.0.0.1:8080 -state ./tuned-state
//
// Clients submit jobs, poll or stream progress, and fetch finished
// Pareto fronts:
//
//	tuned submit -server http://127.0.0.1:8080 -kernel mm -seed 1 -wait
//	tuned status -server http://127.0.0.1:8080 -id j000000
//	tuned front  -server http://127.0.0.1:8080 -id j000000
//	tuned drain  -server http://127.0.0.1:8080
//
// SIGTERM (or POST /v1/drain) drains the server gracefully: running
// searches checkpoint at their next generation boundary, queued jobs
// stay persisted, and the next `tuned serve` over the same -state
// directory resumes every interrupted job to a byte-identical front.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autotune/internal/server"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one CLI invocation; main_test drives it in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch cmd := args[0]; cmd {
	case "serve":
		err = runServe(ctx, args[1:], stdout, stderr)
	case "submit":
		err = runSubmit(ctx, args[1:], stdout, stderr)
	case "status":
		err = runStatus(ctx, args[1:], stdout, stderr)
	case "front":
		err = runFront(ctx, args[1:], stdout, stderr)
	case "drain":
		err = runDrain(ctx, args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "tuned: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 2
		}
		fmt.Fprintln(stderr, "tuned:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `tuned - multi-tenant tuning service

Usage:
  tuned serve  -addr HOST:PORT -state DIR [-workers N] [-max-queued N] [-max-running N] [-no-warm]
  tuned submit -server URL (-kernel NAME | -program FILE) [search flags] [-wait]
  tuned status -server URL [-id JOB]
  tuned front  -server URL -id JOB
  tuned drain  -server URL

Run "tuned COMMAND -h" for each command's flags.
`)
}

// notifyListening and serveConfigHook are in-process test seams:
// the first receives the bound address once the server listens, the
// second may adjust the orchestrator configuration (production keeps
// both nil).
var (
	notifyListening func(net.Addr)
	serveConfigHook func(*server.Config)
)

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tuned serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	state := fs.String("state", "tuned-state", "durable state directory: the shared tuning database with the job records (tunedb/), checkpoint journals (checkpoints/, spill/)")
	workers := fs.Int("workers", 0, "concurrently running searches (0 = default 2)")
	maxQueued := fs.Int("max-queued", 0, "per-tenant queued-job quota, 429 beyond it (0 = default 16)")
	maxRunning := fs.Int("max-running", 0, "per-tenant running-search quota (0 = workers)")
	noWarm := fs.Bool("no-warm", false, "disable warm starts from the shared tuning database")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := server.Config{
		StateDir:            *state,
		Workers:             *workers,
		MaxQueuedPerTenant:  *maxQueued,
		MaxRunningPerTenant: *maxRunning,
		NoWarmStart:         *noWarm,
	}
	if serveConfigHook != nil {
		serveConfigHook(&cfg)
	}
	orch, err := server.NewOrchestrator(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		orch.Drain()
		return err
	}
	fmt.Fprintf(stdout, "tuned: serving on http://%s (state %s)\n", l.Addr(), *state)
	// SIGTERM/SIGINT begin the graceful drain; Serve returns once the
	// running searches have checkpointed and the listener is closed.
	sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Announce the address only once the signal handler is installed,
	// so a test may SIGTERM as soon as it learns where to connect.
	if notifyListening != nil {
		notifyListening(l.Addr())
	}
	err = server.New(orch).Serve(sctx, l)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "tuned: drained, state persisted")
	return nil
}

func runSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tuned submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	srv := fs.String("server", "http://127.0.0.1:8080", "server base URL")
	tenant := fs.String("tenant", "", "tenant name for quota accounting (empty = default)")
	kernel := fs.String("kernel", "", "built-in kernel to tune")
	program := fs.String("program", "", "MiniIR program file to tune instead of a built-in kernel")
	machineName := fs.String("machine", "", "target machine (empty = Westmere)")
	method := fs.String("method", "", "search method (empty = rs-gde3)")
	seed := fs.Int64("seed", 0, "random seed")
	n := fs.Int64("n", 0, "problem size (0 = kernel default)")
	pop := fs.Int("pop", 0, "population size (0 = library default)")
	iters := fs.Int("iterations", 0, "max optimizer iterations (0 = library default)")
	stagnation := fs.Int("stagnation", 0, "stagnation window (0 = library default)")
	islands := fs.Int("islands", 0, "parallel search islands")
	migrate := fs.Int("migrate", 0, "generations between island migrations")
	budget := fs.Int("budget", 0, "random/grid evaluation budget")
	energy := fs.Bool("energy", false, "add the energy objective")
	surrogate := fs.Bool("surrogate", false, "surrogate pre-screening")
	screenTopK := fs.Int("screen-topk", 0, "with -surrogate: admitted candidates per batch")
	noise := fs.Float64("noise", 0, "simulated measurement-noise amplitude")
	deadline := fs.String("deadline", "", "per-job search deadline (Go duration, e.g. 30s)")
	noWarm := fs.Bool("no-warm", false, "disable the warm start for this job")
	force := fs.Bool("force", false, "run a fresh search even if an identical one exists")
	wait := fs.Bool("wait", false, "poll until the job finishes")
	poll := fs.Duration("poll", 200*time.Millisecond, "with -wait: polling interval")
	retries := fs.Int("retries", 0, "retry shed submissions (429/503) with jittered backoff, honoring Retry-After (0 = fail fast)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := &server.JobRequest{
		Tenant:        *tenant,
		Kernel:        *kernel,
		Machine:       *machineName,
		Method:        *method,
		Seed:          *seed,
		N:             *n,
		PopSize:       *pop,
		MaxIterations: *iters,
		Stagnation:    *stagnation,
		Islands:       *islands,
		Migrate:       *migrate,
		RandomBudget:  *budget,
		Energy:        *energy,
		Surrogate:     *surrogate,
		ScreenTopK:    *screenTopK,
		Noise:         *noise,
		Deadline:      *deadline,
		Force:         *force,
	}
	if *program != "" {
		src, err := os.ReadFile(*program)
		if err != nil {
			return err
		}
		req.Source = string(src)
	}
	if *noWarm {
		f := false
		req.WarmStart = &f
	}
	c := &server.Client{BaseURL: *srv}
	var st server.JobStatus
	var err error
	if *retries > 0 {
		// Safe to retry: identical requests share a dedup key, so a
		// retry racing an accepted submission joins the existing job.
		st, err = c.SubmitRetry(ctx, req, server.RetryPolicy{MaxAttempts: 1 + *retries})
	} else {
		st, err = c.Submit(ctx, req)
	}
	if err != nil {
		return err
	}
	dedup := ""
	if st.Deduped {
		dedup = " deduped"
	}
	fmt.Fprintf(stdout, "%s %s%s\n", st.ID, st.State, dedup)
	if !*wait {
		return nil
	}
	st, err = c.Wait(ctx, st.ID, *poll)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s %s evaluations=%d\n", st.ID, st.State, st.Evaluations)
	if st.State == server.StateFailed {
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	return nil
}

func runStatus(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tuned status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	srv := fs.String("server", "http://127.0.0.1:8080", "server base URL")
	id := fs.String("id", "", "job ID (empty = list every job)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &server.Client{BaseURL: *srv}
	if *id != "" {
		st, err := c.Status(ctx, *id)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	for _, st := range jobs {
		extra := ""
		if st.Error != "" {
			extra = "  " + st.Error
		}
		fmt.Fprintf(stdout, "%-8s %-12s %-11s evaluations=%d%s\n",
			st.ID, st.Tenant, st.State, st.Evaluations, extra)
	}
	return nil
}

func runFront(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tuned front", flag.ContinueOnError)
	fs.SetOutput(stderr)
	srv := fs.String("server", "http://127.0.0.1:8080", "server base URL")
	id := fs.String("id", "", "job ID (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("front: -id is required")
	}
	c := &server.Client{BaseURL: *srv}
	front, err := c.Front(ctx, *id)
	if err != nil {
		return err
	}
	_, err = stdout.Write(front)
	return err
}

func runDrain(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tuned drain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	srv := fs.String("server", "http://127.0.0.1:8080", "server base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := &server.Client{BaseURL: *srv}
	if err := c.Drain(ctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "draining")
	return nil
}
