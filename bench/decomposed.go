package main

import (
	"fmt"
	"sync/atomic"

	"autotune/internal/analyzer"
	"autotune/internal/driver"
	"autotune/internal/features"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/skeleton"
	"autotune/internal/surrogate"
)

// layerCounts are the counts taken at the layer boundaries of traced
// ops, so ratios are measured where the work happens.
type layerCounts struct {
	requests, batches atomic.Int64 // configurations asked of / calls into the evaluator
	fresh             atomic.Int64 // distinct successful model evaluations
	generations       atomic.Int64
	screenCandidates  atomic.Int64 // surrogate.Screened.Stats
	screenSkipped     atomic.Int64
}

// capture is what one traced op leaves behind for the layer replays:
// the generation snapshots and the problem they belong to.
type capture struct {
	kernel   *kernels.Kernel
	machine  *machine.Machine
	c        cell
	n        int64
	space    skeleton.Space
	features map[string]float64
	snaps    []*optimizer.Snapshot
}

// timedEval is the benchmark's span wrapper around the evaluator
// chain. It forwards the optional interfaces the search engines probe
// for, so the wrapped search behaves exactly like the bare one.
type timedEval struct {
	inner      objective.Evaluator
	tr         *tracer
	parent, op int
	counts     *layerCounts
}

func (t *timedEval) Evaluate(cfgs []skeleton.Config) [][]float64 {
	id := t.tr.begin("objective.evaluate", t.parent, t.op)
	out := t.inner.Evaluate(cfgs)
	t.tr.end(id)
	t.counts.requests.Add(int64(len(cfgs)))
	t.counts.batches.Add(1)
	return out
}

func (t *timedEval) ObjectiveNames() []string { return t.inner.ObjectiveNames() }
func (t *timedEval) Evaluations() int         { return t.inner.Evaluations() }

func (t *timedEval) SharedCache() *objective.CachingEvaluator {
	return t.inner.(objective.SharedCacher).SharedCache()
}

func (t *timedEval) SyncGeneration() {
	if gs, ok := t.inner.(objective.GenerationSyncer); ok {
		gs.SyncGeneration()
	}
}

// captureCheckpointer is the benchmark's optimizer.Checkpointer: it
// keeps every generation snapshot in memory for the replays. The
// engines build a fresh Snapshot per Save, so retaining it is safe.
type captureCheckpointer struct {
	tr         *tracer
	parent, op int
	snaps      []*optimizer.Snapshot
}

func (c *captureCheckpointer) Save(s *optimizer.Snapshot) error {
	id := c.tr.begin("optimizer.snapshot_hook", c.parent, c.op)
	c.snaps = append(c.snaps, s)
	c.tr.end(id)
	return nil
}

// decomposedTune is autotune.Tune taken apart at its layer boundaries
// — analyzer.Analyze → objective.NewSim (→ surrogate screen) → the
// search engine's exported entry point → driver.EmitUnit — with a span
// around each call. It must yield the front autotune.Tune yields for
// the same op; the golden check holds it to that, byte for byte.
func decomposedTune(tr *tracer, opIdx int, op searchOp, counts *layerCounts) (*searchOut, *capture) {
	fail := func(err error) (*searchOut, *capture) { return &searchOut{err: err}, nil }
	root := tr.begin("tune", -1, opIdx)
	defer tr.end(root)

	id := tr.begin("driver.analyze", root, opIdx)
	k, err := kernels.ByName(op.Kernel)
	if err != nil {
		return fail(err)
	}
	m, err := machine.ByName(op.Machine)
	if err != nil {
		return fail(err)
	}
	n := k.DefaultN
	prog := k.IR(n)
	regions, err := analyzer.Analyze(prog, analyzer.Options{MaxThreads: m.Cores()})
	if err != nil {
		return fail(err)
	}
	region := regions[0]
	space := region.Skeleton.Space
	tr.end(id)

	c := op.cell()
	sim, err := objective.NewSim(objective.SimConfig{Machine: m, Kernel: k, N: n, NoiseAmp: noiseAmp, Objectives: c.objectives()})
	if err != nil {
		return fail(err)
	}
	var inner objective.Evaluator = sim
	cp := &capture{kernel: k, machine: m, c: c, n: n, space: space}
	if fs, err := features.Extract(prog); err == nil {
		cp.features = fs.AsMap()
	}
	var screen *surrogate.Screened
	if op.Variant == "surrogate" {
		screen, err = surrogate.NewScreened(space, sim, surrogate.Options{Features: cp.features})
		if err != nil {
			return fail(err)
		}
		defer screen.Close()
		inner = screen
	}

	sid := tr.begin("optimizer.search", root, opIdx)
	eval := &timedEval{inner: inner, tr: tr, parent: sid, op: opIdx, counts: counts}
	// Only the ops the replays will use pay for snapshots: building one
	// per generation is the dearest part of tracing a search.
	var ctrl optimizer.Control
	hook := &captureCheckpointer{tr: tr, parent: sid, op: opIdx}
	if opIdx < maxReplayCaptures {
		ctrl.Checkpointer = hook
	}
	res, err := runVariant(op, space, eval, ctrl)
	tr.end(sid)
	if err != nil {
		return fail(err)
	}
	if len(res.Front) == 0 {
		return fail(fmt.Errorf("optimizer returned an empty front for %s", op.Kernel))
	}
	cp.snaps = hook.snaps
	counts.fresh.Add(int64(res.Evaluations))
	counts.generations.Add(int64(res.Iterations))
	if screen != nil {
		st := screen.Stats()
		counts.screenCandidates.Add(int64(st.Candidates))
		counts.screenSkipped.Add(int64(st.Skipped))
	}

	id = tr.begin("driver.emit", root, opIdx)
	unit, err := driver.EmitUnit(k, prog, region, res, eval.ObjectiveNames(), n)
	tr.end(id)
	if err != nil {
		return fail(err)
	}
	return &searchOut{front: res.Front, names: unit.ObjectiveNames, evaluations: res.Evaluations}, cp
}

// runVariant calls the search engine the way driver.runSearch does for
// the variant's options.
func runVariant(op searchOp, space skeleton.Space, eval objective.Evaluator, ctrl optimizer.Control) (*optimizer.Result, error) {
	opt := optimizer.Options{Seed: op.Seed}
	switch op.Variant {
	case "rs-gde3", "surrogate", "energy":
		return optimizer.RSGDE3Controlled(space, eval, opt, ctrl)
	case "gde3":
		return optimizer.GDE3Controlled(space, eval, opt, ctrl)
	case "nsga2":
		return optimizer.NSGA2Controlled(space, eval, optimizer.NSGA2Options{Seed: op.Seed}, ctrl)
	case "motpe":
		return optimizer.MOTPEControlled(space, eval, opt, ctrl)
	case "random":
		return optimizer.RandomControlled(space, eval, 1000, op.Seed, ctrl)
	case "grid":
		return optimizer.GridSearchControlled(space, eval, 1000, ctrl)
	case "islands4":
		return optimizer.RSGDE3IslandsControlled(space, eval, opt,
			optimizer.IslandOptions{Islands: 4, MigrationInterval: 5}, ctrl)
	case "race":
		rr, err := optimizer.RaceControlled(space, eval, optimizer.StrategyConfig{Options: opt}, optimizer.RaceOptions{}, ctrl)
		if err != nil {
			return nil, err
		}
		return rr.Result, nil
	}
	return nil, fmt.Errorf("unknown search variant %q", op.Variant)
}
