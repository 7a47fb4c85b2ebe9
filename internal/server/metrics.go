package server

import (
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// series is one line of GET /metrics: a name with its labels, as
// served, and the function that reads its value at scrape time.
type series struct {
	name  string
	value func() float64
}

// registry is the list of series GET /metrics serves, in order.
type registry []series

func (r *registry) add(name string, value func() float64) { *r = append(*r, series{name, value}) }

// counter declares a series that reads the returned counter.
func (r *registry) counter(name string) *atomic.Int64 {
	c := new(atomic.Int64)
	r.add(name, loaded(c))
	return c
}

// write renders every series in the Prometheus text format: a whole
// value as an integer, any other as %.6g.
func (r registry) write(w io.Writer) {
	var b []byte
	for _, s := range r {
		b = append(append(b, s.name...), ' ')
		if v := s.value(); v == math.Trunc(v) {
			b = strconv.AppendInt(b, int64(v), 10)
		} else {
			b = strconv.AppendFloat(b, v, 'g', 6, 64)
		}
		b = append(b, '\n')
	}
	w.Write(b)
}

// declareMetrics declares every series the orchestrator serves, and with
// them the counters its methods bump.
func (o *Orchestrator) declareMetrics() {
	r := &o.metrics
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, stateInterrupted} {
		r.add(`tuned_jobs{state="`+string(st)+`"}`, func() float64 { return float64(o.countState(st)) })
	}
	o.submitted = r.counter("tuned_jobs_submitted_total")
	o.dedupHits = r.counter("tuned_dedup_hits_total")
	o.shedQuota = r.counter("tuned_quota_rejections_total")
	o.evaluations = r.counter("tuned_evaluations_total")
	uptime := func() float64 { return time.Since(o.start).Seconds() }
	r.add("tuned_evals_per_sec", ratio(loaded(o.evaluations), uptime))
	r.add("tuned_dedup_hit_rate", ratio(loaded(o.dedupHits), loaded(o.submitted)))
	r.add("tuned_uptime_seconds", uptime)
	r.add("tuned_draining", func() float64 { return oneIf(o.Draining()) })
	o.shedDegraded = r.counter(`tuned_jobs_shed_total{reason="degraded"}`)
	o.shedDraining = r.counter(`tuned_jobs_shed_total{reason="draining"}`)
	r.add(`tuned_jobs_shed_total{reason="quota"}`, loaded(o.shedQuota))
	r.add("tuned_store_read_only", func() float64 { return oneIf(o.db.Health().ReadOnly) })
	// Which way warm starts went: from the history the open database
	// keeps of a key, or from a scan of the store.
	r.add(`tuned_warm_starts_total{source="resident"}`, func() float64 { _, n, _ := o.db.Residency(); return float64(n) })
	r.add(`tuned_warm_starts_total{source="scan"}`, func() float64 { _, _, n := o.db.Residency(); return float64(n) })
	r.add("tuned_resident_records", func() float64 { n, _, _ := o.db.Residency(); return float64(n) })
}

func (o *Orchestrator) countState(st JobState) (n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, j := range o.jobs {
		if j.rec.State == st {
			n++
		}
	}
	return n
}

func loaded(c *atomic.Int64) func() float64 { return func() float64 { return float64(c.Load()) } }

// ratio reads num/den, or 0 while den is not positive.
func ratio(num, den func() float64) func() float64 {
	return func() float64 {
		if d := den(); d > 0 {
			return num() / d
		}
		return 0
	}
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
