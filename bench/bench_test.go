package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"autotune"
	"autotune/internal/pareto"
	"autotune/internal/store"
)

// testSizes shrink every workload so the whole file runs in seconds.
var testSizes = sizes{maxOps: 4, refGrid: 5, dbKeys: 8, dbEvalsPerKey: 200, coldSeeds: 1}

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	e, err := newEnv(seed, t.TempDir(), testSizes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}} {
		if got := quantile(ten, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	five := []float64{1, 2, 4, 8, 16}
	if q1(five) != 1.5 || median(five) != 4 || quantile(five, 0.75) != 12 {
		t.Errorf("quartiles of %v = %v %v %v", five, q1(five), median(five), quantile(five, 0.75))
	}
	// A high percentile of a short sample is clamped to the maximum.
	if got := quantile(five, 0.99); got != 16 {
		t.Errorf("p99 of five values = %v, want the maximum", got)
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.25) != 7 {
		t.Error("degenerate samples")
	}
	walls := []float64{1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.4, 1.4, 1.4}
	if got, want := roundSpread(walls), (1.2-1.0)/1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("roundSpread = %v, want %v", got, want)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "search", StartNS: 10, EndNS: 90, Parent: 0},
		{Name: "eval", StartNS: 20, EndNS: 40, Parent: 1},
		{Name: "eval", StartNS: 30, EndNS: 60, Parent: 1},  // overlaps the first: union 20..60
		{Name: "eval", StartNS: 80, EndNS: 120, Parent: 1}, // clipped to the parent: 80..90
		{Name: "emit", StartNS: 92, EndNS: 99, Parent: 0},
	}
	want := []int64{100 - 80 - 7, 80 - 40 - 10, 20, 30, 40, 7}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	aggs := aggregate(spans)
	if a := aggs["eval"]; a.count != 3 || a.totalNS != 90 {
		t.Errorf("eval roll-up = %+v", a)
	}
	if get(aggs, "absent").count != 0 {
		t.Error("absent layer must roll up to zero")
	}
	var off *tracer
	off.end(off.begin("x", -1, 0)) // tracing off: no-ops, no panic
}

func TestOpListsDeriveFromSeed(t *testing.T) {
	for _, name := range workloadOrder {
		hash := func(seed int64) string {
			e := &env{seed: seed, sz: sizes{dbKeys: 8, dbEvalsPerKey: 50, coldSeeds: 4}}
			w, err := newWorkload(name, e)
			if err != nil {
				t.Fatal(err)
			}
			return w.opListHash()
		}
		if hash(7) != hash(7) {
			t.Errorf("%s: the same seed gave two op lists", name)
		}
		// service-cold runs one op list for every seed (see serviceOps).
		if (hash(7) == hash(8)) != (name == "service-cold") {
			t.Errorf("%s: op lists of two seeds: same=%v", name, hash(7) == hash(8))
		}
	}
}

func TestDecomposedTuneMatchesTune(t *testing.T) {
	variants := append([]string{"rs-gde3", "motpe"}, portfolioVariants...)
	for _, v := range variants {
		op := searchOp{"jacobi-2d", "Barcelona", v, 42}
		res, err := autotune.Tune(op.Kernel, op.options()...)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		want, _ := frontJSON(res.Front, res.Unit.ObjectiveNames)
		tr := newTracer()
		var counts layerCounts
		so, cp := decomposedTune(tr, 0, op, &counts)
		if so.err != nil {
			t.Fatalf("%s: decomposed: %v", v, so.err)
		}
		got, _ := frontJSON(so.front, so.names)
		if !bytes.Equal(got, want) || so.evaluations != res.Evaluations {
			t.Errorf("%s: decomposed Tune differs from autotune.Tune (E %d vs %d)", v, so.evaluations, res.Evaluations)
		}
		if counts.requests.Load() == 0 || get(aggregate(tr.snapshot()), "objective.evaluate").count == 0 {
			t.Errorf("%s: the timing evaluator saw no calls", v)
		}
		if v == "rs-gde3" && len(cp.snaps) == 0 {
			t.Error("the capturing checkpointer saw no generation")
		}
	}
}

// TestWorkloadSmoke runs every workload small — a warm-up and a timed
// round of four ops — and requires its output checks to pass. Three of
// them (one per kind) run traced as well, and must then report every
// declared per-layer metric.
func TestWorkloadSmoke(t *testing.T) {
	traced := map[string]bool{"search-cold": true, "tunedb-mixed": true, "service-warm": true}
	for _, name := range workloadOrder {
		ro := runOptions{rounds: 1, setups: 1}
		if traced[name] {
			ro = runOptions{setups: 1, traced: 1, outDir: filepath.Join(t.TempDir(), "out")}
		}
		rep, err := runWorkload(name, testEnv(t, 3), ro)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 || rep.Ops == 0 || rep.Attempted%rep.Ops != 0 {
			t.Errorf("%s: attempted %d failed %d ops %d: %v", name, rep.Attempted, rep.Failed, rep.Ops, rep.Failures)
		}
		for _, d := range endToEnd {
			if v := rep.EndToEnd[d.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
			}
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		line := resultLine(rep, traced[name])
		want := len(endToEnd)
		if traced[name] {
			want = len(perLayer)
			if len(rep.PerLayer) != want || rep.PerLayer["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("%s: %d per-layer metrics, want %d, with an overhead ratio", name, len(rep.PerLayer), want)
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil || !res.Correct || res.Attempted < 1 || len(res.Metrics) != want {
			t.Errorf("%s: result line %q: %v", name, line, err)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the driver's contract file and the
// program's own tables from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bm.Paths)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads = %v, the program runs %v", names, workloadOrder)
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, the program reports %d and %d",
			len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := bm.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d = %+v, the program has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := bm.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d = %+v, the program has %+v", i, m, d)
		}
	}
}

func TestCountingFSCountsStoreIO(t *testing.T) {
	cfs := newCountingFS()
	st, err := store.Open(t.TempDir(), store.Options{Shards: 1, FS: cfs, NoBackgroundCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	base := cfs.counts()
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 10; i++ {
		if err := st.Put(string(rune('a'+i)), val); err != nil {
			t.Fatal(err)
		}
	}
	puts := cfs.counts().sub(base)
	if puts.writes < 10 || puts.writeBytes < 10*100 || puts.renames != 0 {
		t.Errorf("10 puts counted as %+v", puts)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := cfs.counts().sub(base); d.fsyncs < 1 {
		t.Errorf("Sync counted %d fsyncs", d.fsyncs)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := cfs.counts().sub(base)
	if flushed.renames != 1 || flushed.writeBytes < 2*10*100 || flushed.fsyncs < 2 {
		t.Errorf("a flush of one shard counted as %+v, want one rename and the records written twice (WAL + segment)", flushed)
	}
	r0 := cfs.counts()
	if v, ok, err := st.Get("c"); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("Get after flush: %v %v", ok, err)
	}
	if d := cfs.counts().sub(r0); d.reads < 1 || d.readBytes < 100 {
		t.Errorf("a segment lookup counted as %+v", d)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// brokenWorkload feeds the real checkers three deliberately wrong
// outputs, so that "checks passed" is known to mean something.
type brokenWorkload struct{}

func (brokenWorkload) opCount() int           { return 4 }
func (brokenWorkload) opListHash() string     { return "" }
func (brokenWorkload) setup(*stepTimer) error { return nil }
func (brokenWorkload) close()                 {}
func (brokenWorkload) layers(*layerCtx) (map[string]float64, error) {
	return map[string]float64{}, nil
}
func (brokenWorkload) round(*tracer) ([]time.Duration, []opOutcome, error) {
	return make([]time.Duration, 4), make([]opOutcome, 4), nil
}

func (brokenWorkload) check(ops []opOutcome) {
	c := cell{"jacobi-2d", "Westmere", false}
	res, err := autotune.Tune(c.Kernel, autotune.WithMachine(c.Machine), autotune.WithSeed(9), autotune.WithNoise(noiseAmp))
	if err != nil {
		panic(err)
	}
	good := res.Front
	// Op 0: a sound front passes.
	ops[0].failure = checkFront(c, good)
	// Op 1: one dominated point added (another point's objectives, each
	// made worse, under a real configuration).
	worse := pareto.Point{Payload: good[0].Payload, Objectives: []float64{good[0].Objectives[0] * 2, good[0].Objectives[1] * 2}}
	ops[1].failure = checkFront(c, append(append([]pareto.Point(nil), good...), worse))
	// Op 2: one objective value off by one ulp-scale nudge.
	wrong := append([]pareto.Point(nil), good...)
	wrong[1] = pareto.Point{Payload: good[1].Payload, Objectives: []float64{good[1].Objectives[0] * (1 - 1e-12), good[1].Objectives[1]}}
	ops[2].failure = checkFront(c, wrong)
	// Op 3: a tunedb read that disagrees with the shadow model.
	ex := dbExpected{primed: 3, gets: [][]float64{{1, 2}, nil}}
	ro := &dbReadOut{frontOK: true, nearestOK: true, primed: 3, gets: [][]float64{{1, 2.5}, nil}, getOK: []bool{true, false}}
	ops[3].failure = checkDBRead(ro, ex)
	for i := range ops {
		if ops[i].failure == "" {
			ops[i].evals, ops[i].quality = 1, 1
		}
	}
}

func TestBrokenOutputsCountAsFailures(t *testing.T) {
	rs := &roundSet{}
	if err := runRound(brokenWorkload{}, nil, rs); err != nil {
		t.Fatal(err)
	}
	if rs.attempted != 4 || rs.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3: %v", rs.attempted, rs.failed, rs.failures)
	}
	for i, want := range []string{"dominated", "fresh evaluation", "GetEval"} {
		if !strings.Contains(rs.failures[i], want) {
			t.Errorf("failure %d = %q, want it to mention %q", i, rs.failures[i], want)
		}
	}
	// The shadow-model check also accepts what it should.
	if msg := checkDBRead(&dbReadOut{frontOK: true, nearestOK: true, primed: 1, gets: [][]float64{nil}, getOK: []bool{false}},
		dbExpected{primed: 1, gets: [][]float64{nil}}); msg != "" {
		t.Errorf("agreeing read rejected: %s", msg)
	}
	// A golden output may not change between rounds.
	g := golden{}
	if g.check(0, []byte("a")) != "" || g.check(0, []byte("a")) != "" || g.check(0, []byte("b")) == "" {
		t.Error("golden check")
	}
}

func TestDriverArgumentForms(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "search-cold", "--seed", "3", "--seconds", "9", "--trace", "0"})
	want := []string{"--workload", "search-cold", "--seed", "3", "--seconds", "9", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v", got)
	}
	if got := normalizeArgs([]string{"-trace", "-all"}); !reflect.DeepEqual(got, []string{"-trace", "-all"}) {
		t.Errorf("bare -trace changed: %v", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // run pins it to 1
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope", "-dir", t.TempDir()}, &out, &errb); code == 0 || !strings.Contains(errb.String(), "unknown workload") {
		t.Errorf("unknown workload: exit %d, %q", code, errb.String())
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no workload: exit %d", code)
	}
}
