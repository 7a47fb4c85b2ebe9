package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autotune/internal/chaos"
	"autotune/internal/driver"
	"autotune/internal/ir"
	"autotune/internal/irparse"
	"autotune/internal/resilience"
	"autotune/internal/tunedb"
)

// Config tunes the orchestrator.
type Config struct {
	// StateDir is the orchestrator's durable root (required). It holds
	// the shared tuning database under tunedb/, which also keeps the job
	// records, and each checkpointed job's journal as <id>.ckpt under
	// checkpoints/ — or under spill/ when the job started while the
	// database was read-only: the checkpoint directory may share the
	// failing volume. A directory whose jobs/ holds the per-file job
	// records of a build up to commit ceac529 is refused.
	StateDir string
	// Workers bounds concurrently running searches (default 2).
	Workers int
	// MaxQueuedPerTenant caps a tenant's waiting jobs; submissions
	// beyond it are rejected with errQuota (default 16).
	MaxQueuedPerTenant int
	// MaxRunningPerTenant caps a tenant's simultaneously running
	// searches; excess jobs wait in the queue (default = Workers).
	MaxRunningPerTenant int
	// NoWarmStart disables the shared-database warm start that
	// otherwise lets every completed job accelerate future ones.
	NoWarmStart bool
	// RecoverInterval is how often a degraded database is probed for
	// recovery (default 5s). Zero keeps the default; negative disables
	// probing.
	RecoverInterval time.Duration

	// DBFS, when set, opens the tuning database — and with it the job
	// records — over this filesystem (chaos tests inject faults here);
	// nil means the real OS.
	DBFS chaos.FS

	// EvalHook, when set, fires once per fresh evaluation of every job,
	// with consecutive counts — synchronously, when the batch the
	// evaluation belongs to has been evaluated and journaled and before
	// its progress event is posted. The in-process tests use it to
	// observe or stall a search at a known depth (a stalled hook holds
	// the search at the end of that batch); it must be safe for
	// concurrent calls.
	EvalHook func(jobID string, evaluations int)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueuedPerTenant <= 0 {
		c.MaxQueuedPerTenant = 16
	}
	if c.MaxRunningPerTenant <= 0 {
		c.MaxRunningPerTenant = c.Workers
	}
	if c.RecoverInterval == 0 {
		c.RecoverInterval = 5 * time.Second
	}
	return c
}

// retryAfterSeconds is the backoff hint, in whole seconds, that the HTTP
// layer attaches as a Retry-After header to shed submissions — quota,
// draining or degraded.
const retryAfterSeconds = 10

// Sentinel orchestration errors, mapped to HTTP statuses by the API
// layer.
var (
	// errQuota rejects a submission exceeding the tenant's queue
	// quota (HTTP 429).
	errQuota = fmt.Errorf("server: tenant queue quota exceeded")
	// errDraining rejects submissions while the server is shutting
	// down (HTTP 503).
	errDraining = fmt.Errorf("server: draining, not accepting jobs")
	// errDegraded rejects submissions while the tuning database is
	// read-only after a disk fault (HTTP 503): reads and running jobs
	// continue, new work is shed until recovery.
	errDegraded = fmt.Errorf("server: degraded (store read-only), not accepting jobs")
	// errNotFound marks an unknown job ID (HTTP 404).
	errNotFound = fmt.Errorf("server: no such job")
)

// job is the in-memory state of one submitted job.
type job struct {
	rec jobRecord
	// unsaved marks a record the database refused: it is written again
	// once the database takes writes. Guarded by Orchestrator.mu.
	unsaved bool
	evals   atomic.Int64
	cancel  context.CancelFunc
	done    chan struct{} // closed when the job reaches a terminal state

	subMu  sync.Mutex
	subSeq int
	subs   map[int]chan Event
}

// Orchestrator schedules tuning jobs over a bounded worker pool with
// per-tenant admission control, request deduplication and durable
// state. All methods are safe for concurrent use.
type Orchestrator struct {
	cfg      Config
	db       *tunedb.DB
	ckptDir  string
	spillDir string
	start    time.Time

	// drainStarted is closed once, when a drain begins: it stops the
	// recovery prober and Serve. drained is closed once the database
	// is closed; every Drain call but the first waits on it.
	drainStarted, drained chan struct{}
	proberWg              sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    []*job   // FIFO of queued jobs
	byDedup  map[string]*job
	running  map[string]int // tenant -> running count
	nextID   int
	draining bool

	wg sync.WaitGroup

	// metrics is what GET /metrics serves; declareMetrics declares it
	// and the counters below, which /metrics reads without the lock.
	metrics                               registry
	submitted, dedupHits, evaluations     *atomic.Int64
	shedQuota, shedDraining, shedDegraded *atomic.Int64
}

// NewOrchestrator opens (or re-opens) the orchestrator over StateDir:
// the shared tuning database is opened, persisted jobs are reloaded,
// and every interrupted or queued job is re-enqueued — interrupted
// searches resume from their checkpoint to a byte-identical front.
func NewOrchestrator(cfg Config) (*Orchestrator, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("server: StateDir required")
	}
	cfg = cfg.withDefaults()
	if err := refuseJobFiles(cfg.StateDir); err != nil {
		return nil, err
	}
	ckptDir := filepath.Join(cfg.StateDir, "checkpoints")
	spillDir := filepath.Join(cfg.StateDir, "spill")
	for _, d := range []string{ckptDir, spillDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	db, err := tunedb.OpenFS(filepath.Join(cfg.StateDir, "tunedb"), cfg.DBFS)
	if err != nil {
		return nil, err
	}
	o := &Orchestrator{
		cfg:          cfg,
		db:           db,
		ckptDir:      ckptDir,
		spillDir:     spillDir,
		start:        time.Now(),
		drainStarted: make(chan struct{}),
		drained:      make(chan struct{}),
		jobs:         map[string]*job{},
		byDedup:      map[string]*job{},
		running:      map[string]int{},
	}
	o.cond = sync.NewCond(&o.mu)
	o.declareMetrics()
	if err := o.reload(); err != nil {
		db.Close()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		o.wg.Add(1)
		go o.worker()
	}
	if cfg.RecoverInterval > 0 {
		o.proberWg.Add(1)
		go o.recoveryProber(cfg.RecoverInterval)
	}
	return o, nil
}

// refuseJobFiles refuses a state directory that keeps its job records
// as files under jobs/, before anything is created in it.
func refuseJobFiles(stateDir string) error {
	dir := filepath.Join(stateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			return fmt.Errorf("server: %s keeps job records as files under jobs/ (%s), which this build does not read — it keeps them in the tuning database: commit ceac529 is the last build that reads jobs/; serve the directory with that build, or move jobs/ away to serve it without those jobs", stateDir, e.Name())
		}
	}
	return nil
}

// recoveryProber periodically probes a degraded database for recovery:
// once the underlying fault clears (space freed, device back), the
// store returns to writable service and /healthz to "ok" without a
// restart.
func (o *Orchestrator) recoveryProber(every time.Duration) {
	defer o.proberWg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-o.drainStarted:
			return
		case <-tick.C:
			o.probe()
		}
	}
}

// probe returns a degraded database to writable service if the fault
// has cleared, then writes the job records it refused meanwhile; a
// record refused again stays marked. On a failed attempt everything
// stays as it was, for the next probe.
func (o *Orchestrator) probe() {
	if !o.db.Health().ReadOnly || o.db.Recover() != nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, j := range o.jobs {
		if j.unsaved {
			o.saveLocked(j)
		}
	}
}

// DB exposes the shared tuning database (read-mostly: stats, tests).
func (o *Orchestrator) DB() *tunedb.DB { return o.db }

// reload replays the job records the database holds, in submission
// order: running jobs from a crash become interrupted, and
// interrupted/queued jobs re-enter the queue.
func (o *Orchestrator) reload() error {
	return o.db.Jobs(func(id string, data []byte) error {
		j := &job{done: make(chan struct{}), subs: map[int]chan Event{}}
		if err := json.Unmarshal(data, &j.rec); err != nil {
			return fmt.Errorf("server: corrupt job record %s: %w", id, err)
		}
		if j.rec.ID != id || j.rec.Request == nil {
			return fmt.Errorf("server: corrupt job record %s: wrong id or no request", id)
		}
		if j.rec.State == StateRunning {
			// The previous process died mid-search; its checkpoint (if
			// any) makes the job resumable.
			j.rec.State = stateInterrupted
		}
		if j.rec.State.Terminal() {
			close(j.done)
		}
		if res := j.rec.Result; res != nil {
			j.evals.Store(int64(res.Evaluations))
		}
		o.jobs[id] = j
		o.order = append(o.order, id)
		if cur, ok := o.byDedup[j.rec.DedupKey]; !ok || cur.rec.State == StateFailed {
			o.byDedup[j.rec.DedupKey] = j
		}
		if n := idNumber(id); n >= o.nextID {
			o.nextID = n + 1
		}
		if j.rec.State == StateQueued || j.rec.State == stateInterrupted {
			o.queue = append(o.queue, j)
		}
		return nil
	})
}

func idNumber(id string) int {
	var n int
	fmt.Sscanf(id, "j%06d", &n)
	return n
}

// Submit validates, deduplicates and enqueues one job. A dedup hit
// returns the existing job's status (Deduped=true) without consuming
// quota; a quota overflow returns errQuota.
func (o *Orchestrator) Submit(req *JobRequest, tenant string) (JobStatus, error) {
	if err := validTenant(tenant); err != nil {
		return JobStatus{}, err
	}
	if err := req.Validate(); err != nil {
		return JobStatus{}, err
	}
	dedup, err := req.DedupKey()
	if err != nil {
		return JobStatus{}, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.draining {
		o.shedDraining.Add(1)
		return JobStatus{}, errDraining
	}
	o.submitted.Add(1)
	if !req.Force {
		if prev, ok := o.byDedup[dedup]; ok && prev.rec.State != StateFailed {
			o.dedupHits.Add(1)
			st := o.statusLocked(prev)
			st.Deduped = true
			return st, nil
		}
	}
	// Degraded shedding comes after dedup: a dedup hit is a read of
	// existing state and reads keep working on a read-only store.
	if h := o.db.Health(); h.ReadOnly {
		o.shedDegraded.Add(1)
		return JobStatus{}, fmt.Errorf("%w: %s", errDegraded, h.Reason)
	}
	queued := 0
	for _, j := range o.queue {
		if j.rec.Tenant == tenant {
			queued++
		}
	}
	if queued >= o.cfg.MaxQueuedPerTenant {
		o.shedQuota.Add(1)
		return JobStatus{}, fmt.Errorf("%w: tenant %q already has %d queued jobs (max %d)",
			errQuota, tenant, queued, o.cfg.MaxQueuedPerTenant)
	}
	id := fmt.Sprintf("j%06d", o.nextID)
	j := &job{
		rec: jobRecord{
			ID:        id,
			Tenant:    tenant,
			Request:   req,
			State:     StateQueued,
			DedupKey:  dedup,
			Submitted: time.Now().Unix(),
		},
		done: make(chan struct{}),
		subs: map[int]chan Event{},
	}
	// Nothing is acknowledged that the database did not take: a refused
	// record is a shed submission when the refusal degraded the store.
	if err := o.persistLocked(j); err != nil {
		if o.db.Health().ReadOnly {
			o.shedDegraded.Add(1)
			return JobStatus{}, fmt.Errorf("%w: %v", errDegraded, err)
		}
		return JobStatus{}, err
	}
	o.nextID++
	o.jobs[id] = j
	o.order = append(o.order, id)
	o.byDedup[dedup] = j
	o.queue = append(o.queue, j)
	o.cond.Broadcast()
	return o.statusLocked(j), nil
}

// Status returns a job's status snapshot.
func (o *Orchestrator) Status(id string) (JobStatus, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	j, ok := o.jobs[id]
	if !ok {
		return JobStatus{}, errNotFound
	}
	return o.statusLocked(j), nil
}

// List returns every job's status in submission order.
func (o *Orchestrator) List() []JobStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]JobStatus, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, o.statusLocked(o.jobs[id]))
	}
	return out
}

func (o *Orchestrator) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:          j.rec.ID,
		Tenant:      j.rec.Tenant,
		State:       j.rec.State,
		Evaluations: int(j.evals.Load()),
		Error:       j.rec.Error,
		Note:        j.rec.Note,
	}
	if j.rec.Result != nil {
		res := *j.rec.Result
		st.Result = &res
		st.Evaluations = res.Evaluations
	}
	return st
}

// Subscribe registers a progress listener on a job. The returned
// channel receives state/progress events (dropped under backpressure —
// poll Status for exact totals), the done channel closes when the job
// reaches a terminal state, and cancel unregisters.
func (o *Orchestrator) Subscribe(id string) (<-chan Event, <-chan struct{}, func(), error) {
	o.mu.Lock()
	j, ok := o.jobs[id]
	o.mu.Unlock()
	if !ok {
		return nil, nil, nil, errNotFound
	}
	ch := make(chan Event, 16)
	j.subMu.Lock()
	j.subSeq++
	n := j.subSeq
	j.subs[n] = ch
	j.subMu.Unlock()
	cancel := func() {
		j.subMu.Lock()
		delete(j.subs, n)
		j.subMu.Unlock()
	}
	return ch, j.done, cancel, nil
}

// notify posts an event to every subscriber, dropping under
// backpressure.
func (j *job) notify(ev Event) {
	j.subMu.Lock()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.subMu.Unlock()
}

// worker runs queued jobs until drain.
func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		j := o.next()
		if j == nil {
			return
		}
		o.run(j)
	}
}

// next blocks until a runnable job exists (FIFO, skipping tenants at
// their running quota) or the orchestrator drains.
func (o *Orchestrator) next() *job {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if o.draining {
			return nil
		}
		for i, j := range o.queue {
			if o.running[j.rec.Tenant] >= o.cfg.MaxRunningPerTenant {
				continue
			}
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			o.running[j.rec.Tenant]++
			j.rec.State = StateRunning
			o.saveLocked(j)
			j.notify(Event{State: StateRunning, Evaluations: int(j.evals.Load())})
			return j
		}
		o.cond.Wait()
	}
}

// run executes one job end-to-end: options from the persisted request,
// the shared database (warm start unless disabled), a checkpoint
// journal for resumable methods, live progress, and drain-aware
// terminal-state accounting.
func (o *Orchestrator) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d := j.rec.Request.deadline(); d > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, d)
		defer tcancel()
	}
	o.mu.Lock()
	// A drain that began between dequeue and here must still stop this
	// search; registering cancel under the lock closes that window.
	if o.draining {
		cancel()
	}
	j.cancel = cancel
	o.mu.Unlock()

	out, note, err := o.tune(ctx, j)

	o.mu.Lock()
	defer o.mu.Unlock()
	j.cancel = nil
	if note != "" {
		j.rec.Note = note
	}
	o.running[j.rec.Tenant]--
	interrupted := o.draining && ctx.Err() != nil
	switch {
	case interrupted:
		// The drain cancelled the search: the checkpoint (if the
		// method keeps one) holds the last completed generation, and a
		// restarted server resumes it to a byte-identical front.
		j.rec.State = stateInterrupted
		j.rec.Error = ""
	case err != nil:
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
	default:
		j.rec.State = StateDone
		j.rec.Error = ""
		j.rec.Result = resultOf(out)
		j.evals.Store(int64(out.Result.Evaluations))
	}
	o.saveLocked(j)
	j.notify(Event{State: j.rec.State, Evaluations: int(j.evals.Load())})
	if j.rec.State.Terminal() {
		close(j.done)
	}
	o.cond.Broadcast()
}

// tune completes the request's options with what the orchestrator owns
// — the cancellable context, the progress feed, the shared database and
// its warm start, the checkpoint journal — and runs the search. The
// note says why a job whose journal exists started anew rather than
// resuming it; it is empty for every other job.
func (o *Orchestrator) tune(ctx context.Context, j *job) (out *driver.Output, note string, err error) {
	req := j.rec.Request
	opt, err := req.options()
	if err != nil {
		return nil, "", err
	}
	id := j.rec.ID
	gate := o.cfg.EvalHook
	opt.Context = ctx
	// One call, and one progress event, per evaluated batch. Concurrent
	// islands may report their cumulative counts out of order: the job's
	// count only moves forward, each step of it claimed by one caller.
	var reported atomic.Int64
	opt.OnProgress = func(n int) {
		prev := reported.Load()
		for int64(n) > prev && !reported.CompareAndSwap(prev, int64(n)) {
			prev = reported.Load()
		}
		if int64(n) <= prev {
			return
		}
		j.evals.Store(int64(n))
		o.evaluations.Add(int64(n) - prev)
		if gate != nil {
			for k := int(prev) + 1; k <= n; k++ {
				gate(id, k)
			}
		}
		j.notify(Event{State: StateRunning, Evaluations: n})
	}
	opt.DB = o.db
	opt.WarmStart = !o.cfg.NoWarmStart
	if req.WarmStart != nil {
		opt.WarmStart = *req.WarmStart
	}
	if req.checkpointable() {
		ckpt := o.journal(id)
		existed := ckpt != ""
		if !existed {
			// New journals started while the database is degraded go to
			// the spill directory: the normal checkpoint dir may share
			// the failing volume.
			dir := o.ckptDir
			if o.db.Health().ReadOnly {
				dir = o.spillDir
			}
			ckpt = filepath.Join(dir, id+".ckpt")
		}
		// Resume only from a journal holding a complete snapshot; a
		// checkpoint cut short before the first generation restarts
		// the search from scratch (it evaluated nothing resumable).
		if _, lerr := resilience.LoadCheckpoint(ckpt); lerr == nil {
			opt.ResumeFrom = ckpt
		} else {
			opt.CheckpointPath = ckpt
			if existed {
				note = fmt.Sprintf("started anew: the checkpoint journal does not load: %v", lerr)
			}
		}
	}
	var prog *ir.Program
	if req.Kernel == "" {
		if prog, err = irparse.Parse(req.Source); err != nil {
			return nil, note, err
		}
	}
	search := func() (*driver.Output, error) {
		if prog == nil {
			return driver.TuneKernel(req.Kernel, opt)
		}
		return driver.TuneProgram(prog, opt)
	}
	out, err = search()
	// The search refuses a journal whose fingerprint is not its own:
	// for this job's unchanged request, one that an older build wrote —
	// a warm-started job's, when fingerprints hashed the warm-start
	// seeds. Nothing of it can be resumed, so the job starts anew over
	// it, as it does over a journal that does not load.
	if opt.ResumeFrom != "" && errors.Is(err, errors.ErrUnsupported) {
		note = fmt.Sprintf("started anew: the search refused the checkpoint journal: %v", err)
		opt.ResumeFrom, opt.CheckpointPath = "", opt.ResumeFrom
		out, err = search()
	}
	return out, note, err
}

// Drain stops the orchestrator gracefully: no new submissions, every
// running search is cancelled (checkpointing at its last completed
// generation) and queued jobs stay persisted. A degraded database is
// probed once more, so that the records it refused are written if the
// fault has cleared, and closed. Every call, the first and any other,
// returns only once the database is closed.
func (o *Orchestrator) Drain() {
	o.mu.Lock()
	if o.draining {
		o.mu.Unlock()
		<-o.drained
		return
	}
	o.draining = true
	for _, j := range o.jobs {
		if j.cancel != nil {
			j.cancel()
		}
	}
	o.cond.Broadcast()
	o.mu.Unlock()
	close(o.drainStarted)
	o.proberWg.Wait()
	o.wg.Wait()
	o.probe()
	o.db.Close()
	close(o.drained)
}

// Draining reports whether a drain is in progress or finished.
func (o *Orchestrator) Draining() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.draining
}

// persistLocked writes a job's record to the tuning database. Callers
// hold o.mu.
func (o *Orchestrator) persistLocked(j *job) error {
	data, err := json.Marshal(j.rec)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return o.db.PutJob(j.rec.ID, data)
}

// saveLocked writes a job's record, marking the job unsaved when the
// database refuses it, so that probe writes it again. The job goes
// on either way: a read-only database costs persistence, not the search.
// Once a done or failed job's record is saved, the job never runs again
// and its journal is garbage — for a job that failed for want of space,
// garbage on the volume that ran out; until then a restart resumes from
// it. Callers hold o.mu.
func (o *Orchestrator) saveLocked(j *job) {
	j.unsaved = o.persistLocked(j) != nil
	if !j.unsaved && j.rec.State.Terminal() {
		if ckpt := o.journal(j.rec.ID); ckpt != "" {
			os.Remove(ckpt)
		}
	}
}

// journal returns the path of the job's checkpoint journal, wherever it
// was started, or "" when it has none.
func (o *Orchestrator) journal(id string) string {
	for _, dir := range []string{o.ckptDir, o.spillDir} {
		path := filepath.Join(dir, id+".ckpt")
		if _, err := os.Stat(path); err == nil {
			return path
		}
	}
	return ""
}
