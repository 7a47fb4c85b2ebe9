package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autotune/internal/chaos"
)

// metricsScrapes names the points of metricsScript at which /metrics is
// read, in order.
var metricsScrapes = []string{"fresh", "jobs", "degraded", "drained"}

// metricsScript runs one orchestrator through a fixed sequence and
// returns what GET /metrics answers at each point metricsScrapes names:
// on the fresh server; after a job gated at its first evaluation, a
// second queued behind it, a quota shed, a dedup hit and, once the gate
// opens, a forced warm rerun; after the store degrades and sheds a
// submission; and after a drain that sheds one more. Between them the
// sequence gives every series a value other than zero.
func metricsScript(t *testing.T) []string {
	t.Helper()
	const gatedID = "j000000"
	inj := chaos.NewInjector(nil)
	var once sync.Once
	gateHit, release := make(chan struct{}), make(chan struct{})
	o, err := NewOrchestrator(Config{
		StateDir:           t.TempDir(),
		Workers:            1,
		MaxQueuedPerTenant: 1,
		DBFS:               inj,
		RecoverInterval:    -1,
		EvalHook: func(id string, n int) {
			if id == gatedID {
				once.Do(func() { close(gateHit) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Drain()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	h := New(o).Handler()
	var scrapes []string
	scrape := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics: HTTP %d", rec.Code)
		}
		scrapes = append(scrapes, rec.Body.String())
	}
	submit := func(req *JobRequest, tenant string, want error) JobStatus {
		t.Helper()
		st, err := o.Submit(req, tenant)
		if !errors.Is(err, want) {
			t.Fatalf("submit seed %d as %s: %v, want %v", req.Seed, tenant, err, want)
		}
		return st
	}

	scrape()
	first := submit(smallJob(1), "alice", nil)
	select {
	case <-gateHit:
	case <-time.After(60 * time.Second):
		t.Fatal("the gated job never reached the gate")
	}
	second := submit(smallJob(2), "alice", nil)
	submit(smallJob(3), "alice", errQuota)
	if st := submit(smallJob(1), "bob", nil); !st.Deduped || st.ID != gatedID {
		t.Fatalf("repeat of the gated job: %+v, want a dedup hit on %s", st, gatedID)
	}
	close(release)
	waitTerminal(t, o, first.ID)
	waitTerminal(t, o, second.ID)
	forced := smallJob(1)
	forced.Force = true
	waitTerminal(t, o, submit(forced, "bob", nil).ID)
	scrape()

	degradeDB(t, o, inj)
	submit(smallJob(4), "carol", errDegraded)
	scrape()

	inj.Clear()
	o.Drain()
	submit(smallJob(5), "carol", errDraining)
	scrape()
	return scrapes
}

// clockSeries matches the series whose values depend on the wall clock.
var clockSeries = regexp.MustCompile(`(?m)^((?:tuned_uptime_seconds|tuned_evals_per_sec) ).*$`)

// TestMetricsPinned holds every byte GET /metrics serves through
// metricsScript, but for the values of the two series the wall clock
// sets, to testdata/metrics.txt, at GOMAXPROCS 1 and 4. -update
// regenerates it.
func TestMetricsPinned(t *testing.T) {
	const path = "testdata/metrics.txt"
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var b strings.Builder
			for i, text := range metricsScript(t) {
				fmt.Fprintf(&b, "# scrape: %s\n", metricsScrapes[i])
				b.WriteString(clockSeries.ReplaceAllString(text, "${1}<clock>"))
			}
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.String() != string(want) {
				t.Errorf("/metrics differs from %s:\n%s", path, b.String())
			}
		})
	}
}

var (
	expositionLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelPairs     = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*$`)
)

// TestMetricsExposition is the oracle of the Prometheus text format over
// every line metricsScript scrapes, unmasked: a valid metric name,
// well-formed label pairs and a float value; no series twice and each
// family on consecutive lines; every _total series non-decreasing from
// one scrape to the next; and the unlabelled series bench/service.go
// reads present.
func TestMetricsExposition(t *testing.T) {
	prev := map[string]float64{}
	for i, text := range metricsScript(t) {
		scrape := metricsScrapes[i]
		if !strings.HasSuffix(text, "\n") {
			t.Fatalf("%s: the exposition does not end in a newline", scrape)
		}
		values := map[string]float64{}
		families := map[string]bool{}
		last := ""
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			m := expositionLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("%s: %q is not a sample line", scrape, line)
			}
			family, labels, value := m[1], m[2], m[3]
			if labels != "" && !labelPairs.MatchString(labels) {
				t.Fatalf("%s: %q: malformed labels", scrape, line)
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", scrape, line, err)
			}
			key := strings.TrimSuffix(line, " "+value)
			if _, dup := values[key]; dup {
				t.Fatalf("%s: %s served twice", scrape, key)
			}
			values[key] = v
			if family != last && families[family] {
				t.Fatalf("%s: the lines of %s are not consecutive", scrape, family)
			}
			families[family], last = true, family
			if was, ok := prev[key]; ok && strings.HasSuffix(family, "_total") && v < was {
				t.Fatalf("%s: counter %s went from %v to %v", scrape, key, was, v)
			}
		}
		for _, name := range []string{"tuned_jobs_submitted_total", "tuned_dedup_hits_total"} {
			if _, ok := values[name]; !ok {
				t.Fatalf("%s: no unlabelled %s", scrape, name)
			}
		}
		if i > 0 && len(values) != len(prev) {
			t.Fatalf("%s serves %d series, the scrape before it %d", scrape, len(values), len(prev))
		}
		prev = values
	}
}
