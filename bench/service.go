package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autotune"
	"autotune/internal/pareto"
	"autotune/internal/server"
	"autotune/internal/skeleton"
)

// The service workloads drive the real HTTP handler over a loopback
// listener with a closed loop of serviceClients callers, each on one
// keep-alive connection, against serviceWorkers search workers.
const (
	serviceClients = 2
	serviceWorkers = 2
	// The warm round per client: three new seeds on each of its five
	// stored keys, and eight repeats of finished jobs.
	warmNewPerClient     = 15
	warmRepeatsPerClient = 8
)

// serviceOp is one job a client submits and follows to its front.
type serviceOp struct {
	Kernel, Machine string
	Seed            int64
	// Repeat marks an exact repeat of a job the stored state already
	// finished: the server must answer it from its dedup table.
	Repeat bool
}

func (o serviceOp) cell() cell { return cell{o.Kernel, o.Machine, false} }
func (o serviceOp) id() string { return fmt.Sprintf("%s|%s|%d", o.Kernel, o.Machine, o.Seed) }

// request leaves warm_start unset: the server-wide setting decides. A
// non-nil *bool would be hashed by address in DedupKey and defeat
// dedup.
func (o serviceOp) request(client int) *server.JobRequest {
	return &server.JobRequest{Tenant: fmt.Sprintf("client%d", client), Kernel: o.Kernel, Machine: o.Machine,
		Seed: o.Seed, Noise: noiseAmp}
}

// coldJobs is the cold job list: every cell under search seeds
// 1..coldSeeds — fixed lists, for the reason searchOps gives — all
// distinct, so nothing dedups.
func coldJobs(coldSeeds int) []serviceOp {
	var jobs []serviceOp
	for _, k := range paperKernels {
		for _, m := range paperMachines {
			for s := 1; s <= coldSeeds; s++ {
				jobs = append(jobs, serviceOp{Kernel: k, Machine: m, Seed: int64(s)})
			}
		}
	}
	return jobs
}

// warmSeedBase starts the search seeds of the warm workload's new jobs,
// clear of the cold list's.
const warmSeedBase = 100

// serviceOps builds the per-client op lists. Client c works on machine
// c's keys, and the clients run in lockstep (see driveClients), so step
// i is a fixed pair of ops. Which jobs run, and which run side by side,
// is the same for every seed: a served job's cost depends on what it
// shares the processor with.
//
// Cold: client c submits the cold jobs of machine c; nothing dedups.
// Warm: per client, warmNewPerClient new-seed jobs on stored keys and
// warmRepeatsPerClient exact repeats of stored jobs. The n-th new job
// on a key always carries the n-th search seed: a warm-started search
// reads what earlier searches on its key wrote, so its front is a
// function of the jobs before it on that key — fixed here — and of
// nothing else, and can be held to byte-identity across rounds.
func serviceOps(seed int64, warm bool, sz sizes) (ops [serviceClients][]serviceOp, stored []serviceOp) {
	cold := coldJobs(sz.coldSeeds)
	for c := range ops {
		var mine []serviceOp
		for _, j := range cold {
			if j.Machine == paperMachines[c] {
				mine = append(mine, j)
			}
		}
		if !warm {
			ops[c] = mine
			continue
		}
		for i := 0; i < warmNewPerClient; i++ {
			ops[c] = append(ops[c], serviceOp{Kernel: paperKernels[i%len(paperKernels)], Machine: paperMachines[c]})
		}
		for i := 0; i < warmRepeatsPerClient; i++ {
			// Seed 1 of each kernel, then seed 2 of the first three.
			nk := len(paperKernels)
			j := mine[(i%nk)*sz.coldSeeds+(i/nk)%sz.coldSeeds]
			j.Repeat = true
			ops[c] = append(ops[c], j)
		}
	}
	// The benchmark seed permutes the warm workload's steps, with one
	// permutation for both clients so the pairs stay together. The cold
	// workload's order is the same for every seed: each kernel has its
	// own store shard, and a job that runs after its shard's memtable
	// flush pays segment reads for every evaluation it journals, so
	// moving jobs along the round changes the work (allocation per op
	// moved 25% between two orders).
	perm := make([]int, len(ops[0]))
	for i := range perm {
		perm[i] = i
	}
	if warm {
		perm = rand.New(rand.NewSource(seed)).Perm(len(perm))
	}
	for c := range ops {
		l := make([]serviceOp, len(perm))
		for i, p := range perm {
			l[i] = ops[c][p]
		}
		nth := map[string]int64{}
		for i := range l {
			if warm && !l[i].Repeat {
				nth[l[i].Kernel]++
				l[i].Seed = warmSeedBase + nth[l[i].Kernel]
			}
		}
		if per := sz.maxOps / serviceClients; sz.maxOps > 0 && per < len(l) {
			l = l[:per]
		}
		ops[c] = l
	}
	if warm {
		// The stored state holds the cold jobs of every cell the ops touch.
		need := map[cell]bool{}
		for c := range ops {
			for _, o := range ops[c] {
				need[o.cell()] = true
			}
		}
		for _, j := range cold {
			if need[j.cell()] {
				stored = append(stored, j)
			}
		}
	}
	return ops, stored
}

// liveServer is one running instance of the service.
type liveServer struct {
	orch *server.Orchestrator
	hs   *http.Server
	base string
	done chan error
}

func startServer(cfg server.Config) (*liveServer, error) {
	cfg.Workers = serviceWorkers
	cfg.RecoverInterval = -1 // no disk faults here, so no prober
	orch, err := server.NewOrchestrator(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		orch.Drain()
		return nil, err
	}
	s := &liveServer{orch: orch, hs: &http.Server{Handler: server.New(orch).Handler()},
		base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(l) }()
	return s, nil
}

// stop drains the orchestrator (closing the database) and shuts the
// listener down, waiting for the serve goroutine to end.
func (s *liveServer) stop() error {
	s.orch.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// jobOut is what a client saw of one job.
type jobOut struct {
	front       []byte
	evaluations int
	deduped     bool
	events      int
	err         error
	// client-side timestamps
	t0, submitted, running, done, end time.Time
}

// runJob is one closed-loop op: POST the job, follow its event stream
// to `done`, GET the front.
func runJob(ctx context.Context, c *server.Client, req *server.JobRequest) *jobOut {
	jo := &jobOut{t0: time.Now()}
	st, err := c.Submit(ctx, req)
	jo.submitted = time.Now()
	jo.running, jo.done = jo.submitted, jo.submitted
	if err != nil {
		jo.err = fmt.Errorf("submit: %w", err)
		return jo
	}
	jo.deduped = st.Deduped
	if !st.State.Terminal() {
		if st, err = followEvents(ctx, c, st.ID, jo); err != nil {
			jo.err = fmt.Errorf("events: %w", err)
			return jo
		}
	}
	if st.State != server.StateDone || st.Result == nil {
		jo.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return jo
	}
	jo.evaluations = st.Result.Evaluations
	jo.front, err = c.Front(ctx, st.ID)
	jo.end = time.Now()
	if err != nil {
		jo.err = fmt.Errorf("front: %w", err)
	}
	return jo
}

// followEvents reads the job's server-sent event stream until the
// `done` event and returns the terminal status it carries.
func followEvents(ctx context.Context, c *server.Client, id string, jo *jobOut) (server.JobStatus, error) {
	var final server.JobStatus
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(c.BaseURL, "/")+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return final, err
	}
	resp, err := c.HTTP.Do(hr)
	if err != nil {
		return final, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return final, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sawRunning := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), server.MaxRequestBytes)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			jo.events++
			data := []byte(line[len("data: "):])
			if !sawRunning {
				var state struct {
					State server.JobState `json:"state"`
				}
				if err := json.Unmarshal(data, &state); err != nil {
					return final, err
				}
				if state.State != server.StateQueued {
					sawRunning, jo.running = true, time.Now()
				}
			}
			if event == "done" {
				jo.done = time.Now()
				err := json.Unmarshal(data, &final)
				// Read to the end of the stream so the keep-alive
				// connection can carry the next request.
				io.Copy(io.Discard, resp.Body)
				return final, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	return final, fmt.Errorf("event stream ended without a done event")
}

// storedJob is a job the pristine state finished.
type storedJob struct {
	front       []byte
	evaluations int
}

type serviceWorkload struct {
	e        *env
	warm     bool
	ops      [serviceClients][]serviceOp
	flat     []serviceOp // ops in outcome order: client 0's, then client 1's
	storedOp []serviceOp // warm: the cold jobs the pristine state holds
	refs     map[cell]refCell
	direct   map[string][]byte    // cold: the library's front for each op
	stored   map[string]storedJob // warm: what the pristine state finished
	pristine string
	gold     golden

	// traced rounds
	fs        *countingFS
	io        ioCounts
	evalHooks atomic.Int64
	tracedS   float64 // wall seconds of traced rounds
	submitted float64 // /metrics totals over traced rounds
	dedupHits float64
	sseEvents float64
	lastStats statsSummary
	lastEvals []float64 // per op, evaluations of the last round checked
}

func newServiceWorkload(e *env, warm bool) *serviceWorkload {
	w := &serviceWorkload{e: e, warm: warm, gold: golden{}}
	w.ops, w.storedOp = serviceOps(e.seed, warm, e.sz)
	for c := range w.ops {
		w.flat = append(w.flat, w.ops[c]...)
	}
	w.lastEvals = make([]float64, len(w.flat))
	return w
}

func (w *serviceWorkload) opCount() int       { return len(w.flat) }
func (w *serviceWorkload) opListHash() string { return hashOps(w.ops) }
func (w *serviceWorkload) close()             {}

func (w *serviceWorkload) cells() []cell {
	cells := make([]cell, len(w.flat))
	for i, o := range w.flat {
		cells[i] = o.cell()
	}
	return distinct(cells)
}

// setup computes the reference fronts, then what the outputs are held
// against: for the cold workload the library's own front for every op;
// for the warm workload the stored state, built by running the cold
// job list through a server once and draining it.
func (w *serviceWorkload) setup(st *stepTimer) error {
	var err error
	if w.refs, err = references(w.cells(), w.e.sz.refGrid, st); err != nil {
		return err
	}
	defer st.mark()
	if !w.warm {
		w.direct = map[string][]byte{}
		for _, o := range w.flat {
			res, err := autotune.Tune(o.Kernel, autotune.WithMachine(o.Machine), autotune.WithSeed(o.Seed), autotune.WithNoise(noiseAmp))
			if err != nil {
				return err
			}
			if w.direct[o.id()], err = frontJSON(res.Front, res.Unit.ObjectiveNames); err != nil {
				return err
			}
		}
		return nil
	}
	if w.pristine != "" {
		os.RemoveAll(w.pristine)
	}
	if w.pristine, err = os.MkdirTemp(w.e.root, "service-pristine-"); err != nil {
		return err
	}
	srv, err := startServer(server.Config{StateDir: w.pristine, NoWarmStart: true})
	if err != nil {
		return err
	}
	// One machine's keys per client, as in the rounds: the front a key
	// ends up storing is the one of the last job to finish on it, so
	// the jobs of one key must not race.
	var lists [serviceClients][]serviceOp
	for _, j := range w.storedOp {
		c := 0
		if j.Machine != paperMachines[0] {
			c = 1
		}
		lists[c] = append(lists[c], j)
	}
	_, outs := driveClients(srv.base, lists)
	if err := srv.stop(); err != nil {
		return err
	}
	w.stored = map[string]storedJob{}
	for c := range lists {
		for i, o := range lists[c] {
			jo := outs[c][i]
			if jo.err != nil {
				return fmt.Errorf("building the stored state: %s: %w", o.id(), jo.err)
			}
			w.stored[o.id()] = storedJob{front: jo.front, evaluations: jo.evaluations}
		}
	}
	return nil
}

// driveClients runs the clients' op lists in lockstep: both clients
// submit their i-th op at the same moment, each on its own keep-alive
// connection, and the next step starts when both have their fronts. In
// a free-running loop the two clients drift, so which jobs share the
// processor — and with it every op latency — would differ from round
// to round; in lockstep it is a property of the op list. It returns
// the time of each step.
func driveClients(base string, lists [serviceClients][]serviceOp) ([]time.Duration, [serviceClients][]*jobOut) {
	var outs [serviceClients][]*jobOut
	var clients [serviceClients]*server.Client
	n := 0
	for c := range lists {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tp.CloseIdleConnections()
		clients[c] = &server.Client{BaseURL: base, HTTP: &http.Client{Transport: tp}}
		outs[c] = make([]*jobOut, len(lists[c]))
		if len(lists[c]) > n {
			n = len(lists[c])
		}
	}
	steps := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range lists {
			if i < len(lists[c]) {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					outs[c][i] = runJob(context.Background(), clients[c], lists[c][i].request(c))
				}(c)
			}
		}
		wg.Wait()
		steps[i] = time.Since(t0)
	}
	return steps, outs
}

// round starts a server over the round's state directory — fresh for
// the cold workload, a copy of the stored state for the warm one — and
// measures the clients' lockstep loop. Start-up and drain are outside
// the measured part; the traced run reports start-up on its own.
func (w *serviceWorkload) round(tr *tracer) ([]time.Duration, []opOutcome, error) {
	dir, err := os.MkdirTemp(w.e.root, "service-round-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	if w.warm {
		if err := copyDir(w.pristine, dir); err != nil {
			return nil, nil, err
		}
	}
	cfg := server.Config{StateDir: dir, NoWarmStart: !w.warm}
	var io0 ioCounts
	if tr != nil {
		if w.fs == nil {
			w.fs = newCountingFS()
		}
		cfg.DBFS, io0 = w.fs, w.fs.counts()
		cfg.EvalHook = func(string, int) { w.evalHooks.Add(1) }
	}
	id := tr.begin("server.start", -1, -1)
	srv, err := startServer(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	steps, outs := driveClients(srv.base, w.ops)
	if tr != nil {
		var wall time.Duration
		for _, d := range steps {
			wall += d
		}
		if err := w.observe(srv, wall, io0); err != nil {
			srv.stop()
			return nil, nil, err
		}
	}
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	out := make([]opOutcome, 0, len(w.flat))
	for c := range outs {
		for _, jo := range outs[c] {
			i := len(out)
			out = append(out, opOutcome{latency: jo.end.Sub(jo.t0), out: jo})
			if jo.err != nil {
				out[i].latency = time.Since(jo.t0)
				continue
			}
			root := tr.add("job", jo.t0, jo.end, -1, i)
			if jo.deduped {
				tr.add("server.dedup_submit", jo.t0, jo.submitted, root, i)
			} else {
				tr.add("server.submit", jo.t0, jo.submitted, root, i)
				tr.add("server.queue", jo.submitted, jo.running, root, i)
				tr.add("server.run", jo.running, jo.done, root, i)
			}
			tr.add("server.front_get", jo.done, jo.end, root, i)
			if tr != nil {
				w.sseEvents += float64(jo.events)
			}
		}
	}
	return steps, out, nil
}

// observe reads, after a traced round's clients have finished, what
// the server and the store counted.
func (w *serviceWorkload) observe(srv *liveServer, wall time.Duration, io0 ioCounts) error {
	text, err := (&server.Client{BaseURL: srv.base}).Metrics(context.Background())
	if err != nil {
		return err
	}
	w.submitted += promValue(text, "tuned_jobs_submitted_total")
	w.dedupHits += promValue(text, "tuned_dedup_hits_total")
	w.tracedS += wall.Seconds()
	w.io = w.io.add(w.fs.counts().sub(io0))
	st, err := srv.orch.DB().Stats()
	if err != nil {
		return err
	}
	w.lastStats = summarizeStats(st, 0)
	return nil
}

// promValue extracts one unlabelled counter from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// parseFront decodes the served front JSON back into points.
func parseFront(data []byte) ([]pareto.Point, error) {
	var recs []struct {
		Config     []int64 `json:"config"`
		Objectives []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, err
	}
	front := make([]pareto.Point, len(recs))
	for i, r := range recs {
		front[i].Payload = skeleton.Config(r.Config)
		for _, o := range r.Objectives {
			front[i].Objectives = append(front[i].Objectives, o.Value)
		}
	}
	return front, nil
}

func (w *serviceWorkload) check(ops []opOutcome) {
	for i := range ops {
		jo := ops[i].out.(*jobOut)
		ops[i].out = nil
		op := w.flat[i]
		if jo.err != nil {
			ops[i].failure = jo.err.Error()
			continue
		}
		if msg := w.checkJob(i, op, jo); msg != "" {
			ops[i].failure = msg
			continue
		}
		front, _ := parseFront(jo.front)
		q, err := w.refs[op.cell()].quality(front)
		if err != nil {
			ops[i].failure = err.Error()
			continue
		}
		ops[i].quality = q
		w.lastEvals[i] = float64(jo.evaluations)
		if !jo.deduped {
			// A dedup hit evaluates nothing.
			ops[i].evals = float64(jo.evaluations)
		}
	}
}

// checkJob returns the first output check one job fails, or "".
func (w *serviceWorkload) checkJob(i int, op serviceOp, jo *jobOut) string {
	front, err := parseFront(jo.front)
	if err != nil {
		return "front does not parse: " + err.Error()
	}
	if msg := checkFront(op.cell(), front); msg != "" {
		return msg
	}
	if msg := w.gold.check(i, jo.front); msg != "" {
		return msg
	}
	switch {
	case op.Repeat:
		if !jo.deduped {
			return "repeat of a finished job was not deduplicated"
		}
		if !bytes.Equal(jo.front, w.stored[op.id()].front) {
			return "dedup hit did not return the stored front"
		}
	case jo.deduped:
		return "distinct job was deduplicated"
	case !w.warm && !bytes.Equal(jo.front, w.direct[op.id()]):
		return "served front differs from the direct autotune.Tune front of the same request"
	}
	return ""
}

func (w *serviceWorkload) layers(lc *layerCtx) (map[string]float64, error) {
	ops, rounds := float64(lc.ops), float64(lc.rounds)
	p50 := func(name string) float64 { return median(get(lc.aggs, name).durationMS) }
	out := map[string]float64{
		"server.submit_ms_p50":       p50("server.submit"),
		"server.queue_ms_p50":        p50("server.queue"),
		"server.run_ms_p50":          p50("server.run"),
		"server.front_get_ms_p50":    p50("server.front_get"),
		"server.dedup_submit_ms_p50": p50("server.dedup_submit"),
		"server.dedup_hit_ratio":     ratio(w.dedupHits, w.submitted),
		"server.sse_events_per_job":  ratio(w.sseEvents, float64(get(lc.aggs, "server.run").count)),
		"server.evals_per_s":         ratio(float64(w.evalHooks.Load()), w.tracedS),
		"server.restart_ms":          ratio(float64(get(lc.aggs, "server.start").totalNS)/1e6, rounds),
		"store.fsyncs_per_op":        ratio(float64(w.io.fsyncs), ops),
		"store.write_kb_per_op":      ratio(float64(w.io.writeBytes)/1024, ops),
		"store.read_kb_per_op":       ratio(float64(w.io.readBytes)/1024, ops),
		"store.read_calls_per_get":   ratio(float64(w.io.reads), float64(w.evalHooks.Load())),
		"store.renames_per_round":    ratio(float64(w.io.renames), rounds),
		"store.segments":             w.lastStats.segments,
		"store.dead_ratio":           w.lastStats.deadRatio,
		"store.bloom_fpr":            w.lastStats.bloomFPR,
	}

	// The same requests as direct, decomposed library calls: their
	// spans give the search-layer metrics of a served job's search, the
	// snapshots feed the replays (checkpoint cost among them), and the
	// direct time is the base of server.job_overhead_ms_p50.
	tr := newTracer()
	var counts layerCounts
	var caps []*capture
	directMS := map[string]float64{}
	var searchOpsRun []searchOp
	for _, o := range w.flat {
		if _, seen := directMS[o.id()]; seen {
			continue
		}
		sop := searchOp{o.Kernel, o.Machine, "rs-gde3", o.Seed}
		t0 := time.Now()
		so, cp := decomposedTune(tr, len(searchOpsRun), sop, &counts)
		if so.err != nil {
			return nil, so.err
		}
		directMS[o.id()] = float64(time.Since(t0)) / 1e6
		searchOpsRun = append(searchOpsRun, sop)
		caps = append(caps, cp)
	}
	spans := tr.snapshot()
	merge(out, searchLayers(&layerCtx{spans: spans, aggs: aggregate(spans), ops: len(searchOpsRun)}, &counts,
		func(int) string { return "rs-gde3" }))
	rep, err := replayLayers(caps, w.e.root)
	if err != nil {
		return nil, err
	}
	merge(out, rep)
	if out["driver.prepare_us"], err = prepareUS(w.cells()); err != nil {
		return nil, err
	}

	var overhead []float64
	var warmE, coldE, nWarm float64
	for _, s := range lc.spans {
		if s.Name != "server.run" {
			continue
		}
		op := w.flat[s.Op]
		overhead = append(overhead, float64(s.EndNS-s.StartNS)/1e6-directMS[op.id()])
	}
	out["server.job_overhead_ms_p50"] = median(overhead)
	if w.warm {
		for _, j := range w.storedOp {
			coldE += float64(w.stored[j.id()].evaluations)
		}
		coldE = ratio(coldE, float64(len(w.storedOp)))
		for i, o := range w.flat {
			if !o.Repeat {
				warmE += w.lastEvals[i]
				nWarm++
			}
		}
		out["server.warm_evals_saved_ratio"] = 1 - ratio(ratio(warmE, nWarm), coldE)
	}
	return out, nil
}
