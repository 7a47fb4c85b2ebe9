package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric. bound is the share by which
// an end-to-end metric may worsen before it counts as a regression —
// and therefore also how closely two runs of the same code must agree.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them under the same names. fail_ratio is reported
// too, but through the result's attempted/failed counts: it is 0 on a
// healthy run, and a relative bound on 0 gates nothing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"evals_per_op", "count", "lower", 0.02},
	{"front_quality", "ratio", "higher", 0.01},
	{"alloc_kb_per_op", "KiB", "lower", 0.03},
	{"allocs_per_op", "count", "lower", 0.03},
}

// sizes scales a run. The defaults are the benchmark; the unit tests
// shrink them so a smoke of every workload fits in seconds.
type sizes struct {
	maxOps        int // 0 = the whole op list
	refGrid       int // brute-force reference grid points per tile dimension
	dbKeys        int // tunedb-mixed: preloaded keys
	dbEvalsPerKey int // tunedb-mixed: preloaded evaluations per key
	coldSeeds     int // service: jobs per (kernel, machine) cell in the cold job list
}

var benchSizes = sizes{refGrid: 10, dbKeys: 40, dbEvalsPerKey: 2500, coldSeeds: 3}

// env is what every workload is built from: the seed all inputs derive
// from and the directory that holds on-disk state.
type env struct {
	seed   int64
	root   string // state root, removed when the run ends
	fsKind string // "tmpfs" or "disk"
	sz     sizes
}

// minShmFree is the free space /dev/shm must offer before state goes
// there: the tunedb-mixed pristine directory plus one working copy and
// the service state directories stay well under it.
const minShmFree = 256 << 20

// newEnv picks the state directory: dir when given, else /dev/shm when
// it is a tmpfs with room (flush latency on a shared sandbox disk is
// noise that no statistic removes; I/O is reported as exact counts
// instead), else a directory under the working directory.
func newEnv(seed int64, dir string, sz sizes) (*env, error) {
	e := &env{seed: seed, sz: sz}
	base := dir
	if base == "" {
		var st syscall.Statfs_t
		if syscall.Statfs("/dev/shm", &st) == nil && int64(st.Bavail)*st.Bsize >= minShmFree {
			base = "/dev/shm"
		} else {
			base = filepath.Join(".bench_build", "state")
		}
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("state directory: %w", err)
	}
	root, err := os.MkdirTemp(base, "autotune-bench-")
	if err != nil {
		return nil, fmt.Errorf("state directory: %w", err)
	}
	e.root = root
	e.fsKind = "disk"
	var st syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	if syscall.Statfs(root, &st) == nil && st.Type == tmpfsMagic {
		e.fsKind = "tmpfs"
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.root) }

// opOutcome is one op of one round. round fills latency and out (the
// op's raw output); check, which runs untimed after the round, fills
// the rest from out.
type opOutcome struct {
	latency time.Duration
	out     interface{}
	evals   float64 // distinct model evaluations (tunedb-mixed: records touched)
	quality float64 // hypervolume against the reference (tunedb-mixed: share of reads equal to the shadow model)
	failure string  // non-empty: the op errored, was refused, or failed an output check
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	opCount() int
	// opListHash identifies the generated op list: same seed, same hash.
	opListHash() string
	// setup does the deterministic preparation (reference fronts,
	// preloaded directories), marking st after each step. It may be
	// called again; each call starts over and takes the same steps.
	setup(st *stepTimer) error
	// round runs the op list once from the same starting state. It
	// returns the times of the consecutive steps that make up the
	// measured part — the same steps in every round — and one outcome
	// per op. tr is nil except in traced rounds.
	round(tr *tracer) (steps []time.Duration, ops []opOutcome, err error)
	// check validates a round's outputs and fills evals, quality and
	// failure. The first round checked fixes the golden outputs that
	// later rounds must reproduce byte for byte.
	check(ops []opOutcome)
	// layers derives the per-layer metrics from the traced rounds.
	layers(lc *layerCtx) (map[string]float64, error)
	close()
}

var workloadOrder = []string{"search-cold", "search-portfolio", "tunedb-mixed", "service-cold", "service-warm"}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "search-cold":
		return newSearchWorkload(e, false), nil
	case "search-portfolio":
		return newSearchWorkload(e, true), nil
	case "tunedb-mixed":
		return newTunedbWorkload(e), nil
	case "service-cold":
		return newServiceWorkload(e, false), nil
	case "service-warm":
		return newServiceWorkload(e, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloadOrder)
}

// stepTimer splits a stretch of work into consecutive timed steps.
type stepTimer struct {
	last  time.Time
	steps []time.Duration
}

func newStepTimer() *stepTimer { return &stepTimer{last: time.Now()} }

// mark ends the current step.
func (s *stepTimer) mark() {
	now := time.Now()
	s.steps = append(s.steps, now.Sub(s.last))
	s.last = now
}

// timeSlices is how many slices a round is cut into for timing.
const timeSlices = 8

// quietTime estimates what a sequence of steps costs on an undisturbed
// host from several repeats of it. runs[r] holds repeat r's step times;
// every repeat takes the same steps. The steps are cut into at most
// slices groups of consecutive steps, each group's time is taken from
// the repeat in which it was quickest, and the groups are summed.
//
// On a shared host, time comes in phases that last seconds: the same
// one-second round takes 0.9 s in a quiet phase and 1.3 s while a
// neighbour is busy, and a lower quartile over whole rounds needs whole
// quiet rounds, which a bad minute does not offer. A slice is a tenth
// of a second — short enough to fall inside one phase, long enough to
// hold its share of collector cycles — so each slice only needs one
// quiet moment among the repeats. Across same-seed runs this agreed
// within 4-9% where the quartile of round times agreed within 16-22%.
func quietTime(runs [][]time.Duration, slices int) time.Duration {
	if len(runs) == 0 {
		return 0
	}
	n := len(runs[0])
	if slices > n {
		slices = n
	}
	var total time.Duration
	for s := 0; s < slices; s++ {
		lo, hi := s*n/slices, (s+1)*n/slices
		best := time.Duration(-1)
		for _, steps := range runs {
			var t time.Duration
			for _, d := range steps[lo:hi] {
				t += d
			}
			if best < 0 || t < best {
				best = t
			}
		}
		total += best
	}
	return total
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one workload run produced. The driver's result
// line carries a subset; the text output and -json carry all of it —
// every round's wall time, their median, the pooled tail — so nothing
// the quiet-slice estimate leaves out is lost.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	OpListHash string             `json:"op_list_hash"`
	Ops        int                `json:"ops_per_round"`
	Rounds     int                `json:"rounds"`
	StateFS    string             `json:"state_fs"`
	SetupS     []float64          `json:"setup_s_runs"`
	RoundWallS []float64          `json:"round_wall_s"`
	QuietWallS float64            `json:"round_wall_s_quiet"`
	MedianWall float64            `json:"round_wall_s_median"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
	layerVals  map[string]float64 // process and tail metrics gathered in every run
}

// roundSet accumulates timed rounds.
type roundSet struct {
	ops        int
	walls      []float64 // seconds
	steps      [][]time.Duration
	opMS       [][]float64 // [round][op]
	evals      float64
	quality    float64
	attempted  int
	failed     int
	failures   []string
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
	cpuS       float64
	syscw      int64
	wchar      int64
}

// quietWall is the round time on an undisturbed host (see quietTime).
func (rs *roundSet) quietWall() float64 { return quietTime(rs.steps, timeSlices).Seconds() }

func (rs *roundSet) opsPerS() float64 { return ratio(float64(rs.ops), rs.quietWall()) }

// opP50 is the median over ops of each op's quickest latency across
// the rounds: per op, the same reasoning as per slice.
func (rs *roundSet) opP50() float64 {
	if len(rs.opMS) == 0 {
		return 0
	}
	best := append([]float64(nil), rs.opMS[0]...)
	for _, row := range rs.opMS[1:] {
		for i, v := range row {
			if v < best[i] {
				best[i] = v
			}
		}
	}
	return median(best)
}

// runRound runs one round with the collector quiesced before it, reads
// the process counters around the measured part only, then checks the
// outputs untimed. A nil rs discards the numbers (the warm-up).
func runRound(w workload, tr *tracer, rs *roundSet) error {
	runtime.GC()
	before := readProc()
	steps, ops, err := w.round(tr)
	after := readProc()
	if err != nil {
		return err
	}

	w.check(ops)
	if rs == nil {
		for _, op := range ops {
			if op.failure != "" {
				return fmt.Errorf("warm-up round: %s", op.failure)
			}
		}
		return nil
	}
	rs.ops = len(ops)
	var wall time.Duration
	for _, d := range steps {
		wall += d
	}
	rs.walls = append(rs.walls, wall.Seconds())
	rs.steps = append(rs.steps, steps)

	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = float64(op.latency) / 1e6
		rs.attempted++
		if op.failure != "" {
			rs.failed++
			if len(rs.failures) < 8 {
				rs.failures = append(rs.failures, fmt.Sprintf("op %d: %s", i, op.failure))
			}
			continue
		}
		rs.evals += op.evals
		rs.quality += op.quality
	}
	rs.opMS = append(rs.opMS, lat)
	rs.allocBytes += after.totalAlloc - before.totalAlloc
	rs.mallocs += after.mallocs - before.mallocs
	rs.gcCycles += after.numGC - before.numGC
	rs.gcPauseNS += after.gcPauseNS - before.gcPauseNS
	rs.cpuS += after.cpuS - before.cpuS
	rs.syscw += after.writeSyscalls - before.writeSyscalls
	rs.wchar += after.wcharBytes - before.wcharBytes
	return nil
}

// runOptions selects how much one workload run measures.
type runOptions struct {
	rounds int // timed rounds of an untraced run
	setups int // times set-up is repeated
	// traced > 0 makes the run a traced one: that many rounds with
	// tracing on and as many with it off, interleaved, so that
	// trace.overhead_ratio compares like with like; then the per-layer
	// metrics are derived and the spans written to outDir.
	traced int
	outDir string
}

func runWorkload(name string, e *env, ro runOptions) (*report, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep := &report{Workload: name, Seed: e.seed, OpListHash: w.opListHash(), Ops: w.opCount(), StateFS: e.fsKind}

	// Set-up is repeated ro.setups times, the repeats spread evenly
	// through the run — before the warm-up, between blocks of rounds,
	// after the last round — so that one bad stretch of seconds cannot
	// sit on all of them. Every repeat rebuilds the same state, so the
	// rounds after it go on as before.
	var setups [][]time.Duration
	setup := func() error {
		runtime.GC()
		st := newStepTimer()
		if err := w.setup(st); err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		var total time.Duration
		for _, d := range st.steps {
			total += d
		}
		setups = append(setups, st.steps)
		rep.SetupS = append(rep.SetupS, total.Seconds())
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	if err := runRound(w, nil, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	plain, traced := &roundSet{}, &roundSet{}
	var tr *tracer
	if ro.traced > 0 {
		tr = newTracer()
	}
	nRounds := ro.rounds
	if tr != nil {
		nRounds = ro.traced
	}
	for i := 0; i < nRounds; i++ {
		if err := runRound(w, nil, plain); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if tr != nil {
			if err := runRound(w, tr, traced); err != nil {
				return nil, fmt.Errorf("%s: traced round: %w", name, err)
			}
		}
		if more := ro.setups - 1; more > 0 && len(setups) < 1+(i+1)*more/nRounds {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}

	rs := plain
	rep.Rounds = len(rs.walls)
	rep.RoundWallS = rs.walls
	rep.MedianWall, rep.QuietWallS = median(rs.walls), rs.quietWall()
	rep.Attempted, rep.Failed = rs.attempted+traced.attempted, rs.failed+traced.failed
	rep.Failures = append(rs.failures, traced.failures...)
	okOps := float64(rs.attempted - rs.failed)
	allOps := float64(rs.attempted)
	vals := map[string]float64{
		"setup_s":         quietTime(setups, len(setups[0])).Seconds(),
		"ops_per_s":       rs.opsPerS(),
		"op_ms_p50":       rs.opP50(),
		"evals_per_op":    ratio(rs.evals, okOps),
		"front_quality":   ratio(rs.quality, okOps),
		"alloc_kb_per_op": ratio(float64(rs.allocBytes)/1024, allOps),
		"allocs_per_op":   ratio(float64(rs.mallocs), allOps),
	}
	rep.EndToEnd = map[string]metric{}
	for _, d := range endToEnd {
		rep.EndToEnd[d.name] = metric{vals[d.name], d.unit}
	}
	rounds := float64(len(rs.walls))
	var pooled []float64
	for _, row := range rs.opMS {
		pooled = append(pooled, row...)
	}
	rep.layerVals = map[string]float64{
		"proc.cpu_s_per_round":       ratio(rs.cpuS, rounds),
		"proc.gc_cycles_per_round":   ratio(float64(rs.gcCycles), rounds),
		"proc.gc_pause_ms_per_round": ratio(float64(rs.gcPauseNS)/1e6, rounds),
		"proc.peak_rss_mb":           peakRSSMB(),
		"proc.write_syscalls_per_op": ratio(float64(rs.syscw), allOps),
		"proc.wchar_kb_per_op":       ratio(float64(rs.wchar)/1024, allOps),
		"tail.op_ms_p90":             quantile(pooled, 0.90),
		"tail.op_ms_p99":             quantile(pooled, 0.99),
		"noise.round_spread":         roundSpread(rs.walls),
	}
	if ro.traced == 0 {
		return rep, nil
	}

	spans := tr.snapshot()
	if rep.TraceFile, err = writeTrace(ro.outDir, name, spans); err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", name, err)
	}
	lv, err := w.layers(&layerCtx{spans: spans, aggs: aggregate(spans), ops: traced.attempted, rounds: ro.traced})
	if err != nil {
		return nil, fmt.Errorf("%s: per-layer metrics: %w", name, err)
	}
	for k, v := range rep.layerVals {
		lv[k] = v
	}
	lv["trace.overhead_ratio"] = ratio(traced.opsPerS(), plain.opsPerS())
	rep.PerLayer = map[string]metric{}
	for _, d := range perLayer {
		rep.PerLayer[d.name] = metric{lv[d.name], d.unit}
		delete(lv, d.name)
	}
	if len(lv) > 0 {
		var extra []string
		for k := range lv {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("%s: per-layer metrics not declared: %v", name, extra)
	}
	return rep, nil
}

// layerCtx is what a workload derives its per-layer metrics from.
type layerCtx struct {
	spans  []span
	aggs   map[string]*spanAgg
	ops    int // ops in the traced rounds
	rounds int
}

// perLayer declares every per-layer metric. A workload reports 0 for a
// layer it does not enter: "this layer does no work here" is the
// prediction a storage change is checked against on search-cold.
var perLayer = []metricDef{
	{name: "driver.prepare_us", unit: "us", better: "lower"},
	{name: "driver.emit_us", unit: "us", better: "lower"},
	{name: "driver.tune_self_us", unit: "us", better: "lower"},
	{name: "objective.requests_per_op", unit: "count", better: "lower"},
	{name: "objective.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "objective.batch_mean", unit: "count", better: "higher"},
	{name: "objective.busy_us_per_op", unit: "us", better: "lower"},
	{name: "objective.us_per_eval", unit: "us", better: "lower"},
	{name: "perfmodel.ns_per_eval", unit: "ns", better: "lower"},
	{name: "optimizer.search_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.generations_per_op", unit: "count", better: "lower"},
	{name: "optimizer.self_us_per_gen", unit: "us", better: "lower"},
	{name: "optimizer.gde3_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.nsga2_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.random_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.grid_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.race_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.surrogate_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.islands4_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.energy_ms_per_op", unit: "ms", better: "lower"},
	{name: "optimizer.motpe_ms_per_op", unit: "ms", better: "lower"},
	{name: "pareto.nondominated_us_per_call", unit: "us", better: "lower"},
	{name: "pareto.hypervolume_us_per_call", unit: "us", better: "lower"},
	{name: "pareto.archive_add_ns_per_point", unit: "ns", better: "lower"},
	{name: "roughset.reduce_us_per_call", unit: "us", better: "lower"},
	{name: "surrogate.screened_ratio", unit: "ratio", better: "higher"},
	{name: "surrogate.predict_us_per_cfg", unit: "us", better: "lower"},
	{name: "surrogate.observe_us_per_sample", unit: "us", better: "lower"},
	{name: "tunedb.puteval_us_new", unit: "us", better: "lower"},
	{name: "tunedb.puteval_us_dup", unit: "us", better: "lower"},
	{name: "tunedb.geteval_us_hit", unit: "us", better: "lower"},
	{name: "tunedb.geteval_us_miss", unit: "us", better: "lower"},
	{name: "tunedb.warmcache_us_per_record", unit: "us", better: "lower"},
	{name: "tunedb.front_get_us", unit: "us", better: "lower"},
	{name: "tunedb.putfront_ms", unit: "ms", better: "lower"},
	{name: "tunedb.read_op_ms_p50", unit: "ms", better: "lower"},
	{name: "tunedb.write_op_ms_p50", unit: "ms", better: "lower"},
	{name: "tunedb.open_ms", unit: "ms", better: "lower"},
	{name: "tunedb.close_ms", unit: "ms", better: "lower"},
	{name: "store.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "store.write_kb_per_op", unit: "KiB", better: "lower"},
	{name: "store.read_calls_per_get", unit: "count", better: "lower"},
	{name: "store.read_kb_per_op", unit: "KiB", better: "lower"},
	{name: "store.renames_per_round", unit: "count", better: "lower"},
	{name: "store.segments", unit: "count", better: "lower"},
	{name: "store.dead_ratio", unit: "ratio", better: "lower"},
	{name: "store.bloom_fpr", unit: "ratio", better: "lower"},
	{name: "store.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "resilience.checkpoint_save_us_per_gen", unit: "us", better: "lower"},
	{name: "resilience.checkpoint_kb_per_gen", unit: "KiB", better: "lower"},
	{name: "server.submit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.queue_ms_p50", unit: "ms", better: "lower"},
	{name: "server.run_ms_p50", unit: "ms", better: "lower"},
	{name: "server.front_get_ms_p50", unit: "ms", better: "lower"},
	{name: "server.dedup_submit_ms_p50", unit: "ms", better: "lower"},
	{name: "server.dedup_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.sse_events_per_job", unit: "count", better: "lower"},
	{name: "server.evals_per_s", unit: "1/s", better: "higher"},
	{name: "server.job_overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "server.restart_ms", unit: "ms", better: "lower"},
	{name: "server.warm_evals_saved_ratio", unit: "ratio", better: "higher"},
	{name: "proc.cpu_s_per_round", unit: "s", better: "lower"},
	{name: "proc.gc_cycles_per_round", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms_per_round", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "proc.write_syscalls_per_op", unit: "count", better: "lower"},
	{name: "proc.wchar_kb_per_op", unit: "KiB", better: "lower"},
	{name: "tail.op_ms_p90", unit: "ms", better: "lower"},
	{name: "tail.op_ms_p99", unit: "ms", better: "lower"},
	{name: "noise.round_spread", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}
