package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"autotune/internal/driver"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/pareto"
	"autotune/internal/perfmodel"
	"autotune/internal/resilience"
	"autotune/internal/roughset"
	"autotune/internal/skeleton"
	"autotune/internal/surrogate"
)

// maxReplayCaptures bounds the replays: enough searches for steady
// means, few enough that a traced run stays short.
const maxReplayCaptures = 16

// tally is a total time over a count of calls.
type tally struct {
	ns int64
	n  int64
}

func (t *tally) time(n int, fn func()) {
	t0 := time.Now()
	fn()
	t.ns += time.Since(t0).Nanoseconds()
	t.n += int64(n)
}

func (t tally) usPer() float64 { return ratio(float64(t.ns)/1e3, float64(t.n)) }
func (t tally) nsPer() float64 { return ratio(float64(t.ns), float64(t.n)) }

func membersToPoints(ms []optimizer.Member) ([]pareto.Point, []skeleton.Config, [][]float64) {
	pts := make([]pareto.Point, 0, len(ms))
	cfgs := make([]skeleton.Config, len(ms))
	objs := make([][]float64, len(ms))
	for i, m := range ms {
		cfgs[i], objs[i] = skeleton.Config(m.Config), m.Objs
		if m.Objs != nil {
			pts = append(pts, pareto.Point{Payload: cfgs[i], Objectives: m.Objs})
		}
	}
	return pts, cfgs, objs
}

// replayLayers times the leaf layers directly, on the inputs the
// traced searches actually produced: each generation's population goes
// through pareto.NonDominated and roughset.Split/Reduce, each archive
// through pareto.Hypervolume, each evaluated configuration through
// Archive.Add, a fresh Sim.EvaluateOne, the bare performance model and
// the surrogate model, and each snapshot through a real
// resilience.Checkpoint in the state directory. The layers are
// measured from outside, at the sizes the search uses them at.
func replayLayers(caps []*capture, stateDir string) (map[string]float64, error) {
	var nondom, hv, add, reduce, predict, observe, save, simEval, model tally
	var ckptBytes int64
	if len(caps) > maxReplayCaptures {
		caps = caps[:maxReplayCaptures]
	}
	for ci, cp := range caps {
		if cp == nil {
			continue
		}
		sim, err := cp.c.newSim()
		if err != nil {
			return nil, err
		}
		pm := perfmodel.New(cp.machine)
		pm.NoiseAmp = noiseAmp
		sm := surrogate.NewModel(cp.space, cp.features, 0)
		archive := pareto.NewArchive()
		path := filepath.Join(stateDir, fmt.Sprintf("replay-%d.ckpt", ci))
		ck, err := resilience.CreateCheckpoint(path)
		if err != nil {
			return nil, err
		}
		for _, snap := range cp.snaps {
			for _, st := range snap.States {
				pts, cfgs, objs := membersToPoints(st.Pop)
				nondom.time(1, func() { pareto.NonDominated(pts) })
				reduce.time(1, func() {
					nd, dom := roughset.Split(cfgs, objs, pareto.Dominates)
					roughset.Reduce(cp.space, nd, dom)
				})
				apts, _, _ := membersToPoints(st.Archive)
				if ref, err := pareto.SharedReference(apts); err == nil {
					hv.time(1, func() { pareto.Hypervolume(objectivesOf(apts), ref) })
				}
			}
			// Each leaf is timed over the whole batch: two clock reads
			// per 200 ns model call would measure the clock.
			evs, d := snap.Evals, cp.kernel.TileDims
			simEval.time(len(evs), func() {
				for _, ev := range evs {
					sim.EvaluateOne(skeleton.Config(ev.Config))
				}
			})
			var good []optimizer.EvalState
			for _, ev := range evs {
				if ev.Objs != nil && len(ev.Config) == d+1 {
					good = append(good, ev)
				}
			}
			model.time(len(good), func() {
				for _, ev := range good {
					pm.TimeUnrolled(cp.kernel.Model, cp.n, ev.Config[:d], int(ev.Config[d]), 1, 0)
				}
			})
			add.time(len(good), func() {
				for _, ev := range good {
					archive.Add(pareto.Point{Payload: skeleton.Config(ev.Config), Objectives: ev.Objs})
				}
			})
			predict.time(len(good), func() {
				for _, ev := range good {
					sm.Predict(skeleton.Config(ev.Config))
				}
			})
			observe.time(len(good), func() {
				for _, ev := range good {
					sm.Observe(skeleton.Config(ev.Config), ev.Objs)
				}
			})
			var serr error
			save.time(1, func() { serr = ck.Save(snap) })
			if serr != nil {
				ck.Close()
				return nil, serr
			}
		}
		if err := ck.Close(); err != nil {
			return nil, err
		}
		if fi, err := os.Stat(path); err == nil {
			ckptBytes += fi.Size()
		}
		os.Remove(path)
	}
	return map[string]float64{
		"pareto.nondominated_us_per_call":       nondom.usPer(),
		"pareto.hypervolume_us_per_call":        hv.usPer(),
		"pareto.archive_add_ns_per_point":       add.nsPer(),
		"roughset.reduce_us_per_call":           reduce.usPer(),
		"surrogate.predict_us_per_cfg":          predict.usPer(),
		"surrogate.observe_us_per_sample":       observe.usPer(),
		"objective.us_per_eval":                 simEval.usPer(),
		"perfmodel.ns_per_eval":                 model.nsPer(),
		"resilience.checkpoint_save_us_per_gen": save.usPer(),
		"resilience.checkpoint_kb_per_gen":      ratio(float64(ckptBytes)/1024, float64(save.n)),
	}, nil
}

// prepareUS times driver.ProblemKey — IR construction, analysis and
// fingerprinting, the part of the driver every Tune and every service
// submit (for its dedup key) pays before any search.
func prepareUS(cells []cell) (float64, error) {
	var t tally
	for rep := 0; rep < 8; rep++ {
		for _, c := range cells {
			m, err := machine.ByName(c.Machine)
			if err != nil {
				return 0, err
			}
			var kerr error
			t.time(1, func() {
				_, kerr = driver.ProblemKey(c.Kernel, driver.Options{Machine: m, Objectives: c.objectives()})
			})
			if kerr != nil {
				return 0, kerr
			}
		}
	}
	return t.usPer(), nil
}

// searchLayers derives the driver, objective and optimizer metrics
// from the spans and counts of decomposed Tunes.
func searchLayers(lc *layerCtx, counts *layerCounts, variantOf func(op int) string) map[string]float64 {
	ops := float64(lc.ops)
	self := selfTimes(lc.spans)
	var tuneSelf, searchSelf, searchTotal int64
	perVariant := map[string]*tally{}
	for i, s := range lc.spans {
		switch s.Name {
		case "tune":
			tuneSelf += self[i]
		case "optimizer.search":
			searchSelf += self[i]
			searchTotal += s.EndNS - s.StartNS
			v := variantOf(s.Op)
			if perVariant[v] == nil {
				perVariant[v] = &tally{}
			}
			perVariant[v].ns += s.EndNS - s.StartNS
			perVariant[v].n++
		}
	}
	requests, fresh := float64(counts.requests.Load()), float64(counts.fresh.Load())
	out := map[string]float64{
		"driver.emit_us":               ratio(float64(get(lc.aggs, "driver.emit").totalNS)/1e3, ops),
		"driver.tune_self_us":          ratio(float64(tuneSelf)/1e3, ops),
		"objective.requests_per_op":    ratio(requests, ops),
		"objective.cache_hit_ratio":    1 - ratio(fresh, requests),
		"objective.batch_mean":         ratio(requests, float64(counts.batches.Load())),
		"objective.busy_us_per_op":     ratio(float64(get(lc.aggs, "objective.evaluate").totalNS)/1e3, ops),
		"optimizer.search_ms_per_op":   ratio(float64(searchTotal)/1e6, ops),
		"optimizer.self_ms_per_op":     ratio(float64(searchSelf)/1e6, ops),
		"optimizer.generations_per_op": ratio(float64(counts.generations.Load()), ops),
		"optimizer.self_us_per_gen":    ratio(float64(searchSelf)/1e3, float64(counts.generations.Load())),
		"surrogate.screened_ratio":     ratio(float64(counts.screenSkipped.Load()), float64(counts.screenCandidates.Load())),
	}
	if requests == 0 {
		out["objective.cache_hit_ratio"] = 0
	}
	for v, t := range perVariant {
		if v != "rs-gde3" {
			out["optimizer."+v+"_ms_per_op"] = ratio(float64(t.ns)/1e6, float64(t.n))
		}
	}
	return out
}

func merge(dst map[string]float64, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// layers for the search workloads: spans of the decomposed Tunes, the
// leaf replays, and — on the portfolio — stand-alone motpe, which the
// timed rounds leave out.
func (w *searchWorkload) layers(lc *layerCtx) (map[string]float64, error) {
	out := searchLayers(lc, &w.counts, func(op int) string { return w.ops[op].Variant })
	caps := make([]*capture, 0, len(w.ops))
	for i := range w.ops {
		caps = append(caps, w.captures[i])
	}
	rep, err := replayLayers(caps, w.e.root)
	if err != nil {
		return nil, err
	}
	merge(out, rep)
	if out["driver.prepare_us"], err = prepareUS(cellsOf(w.ops)); err != nil {
		return nil, err
	}
	if w.portfolio {
		tr := newTracer()
		var counts layerCounts
		for i, k := range []string{"mm", "jacobi-2d"} {
			op := searchOp{k, "Westmere", "motpe", 1 + w.e.seed}
			if so, _ := decomposedTune(tr, i, op, &counts); so.err != nil {
				return nil, so.err
			}
		}
		out["optimizer.motpe_ms_per_op"] = ratio(float64(get(aggregate(tr.snapshot()), "optimizer.search").totalNS)/1e6, 2)
	}
	return out, nil
}

var _ objective.Evaluator = (*timedEval)(nil)
