// Run control for the evolutionary optimizers: context-based
// cancellation and deadlines, generation-granular checkpointing, and
// exact resume.
//
// Run — every registered strategy, a race of them, the brute-force
// sweep — accepts a Control carrying a context.Context, a Checkpointer
// and an optional resume Snapshot. Cancellation is graceful: the search
// stops at the next evaluation or generation boundary (a sweep's or a
// walk's chunk) and returns the best-so-far valid Pareto front with
// Result.Partial set — never an error with nothing. Only the strategies
// with a Restore hook checkpoint and resume. A Snapshot captures
// the complete search state at a generation boundary — per-island
// populations, archives, stagnation counters, RNG draw counts, and the
// fresh evaluation results of the interval — so a resumed search
// replays nothing and produces a byte-identical final front to the
// same-seed uninterrupted run.
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// Control carries the cross-cutting run controls threaded through a
// search. The zero value is a plain uncontrolled run.
type Control struct {
	// Ctx bounds the search with a deadline and/or cancel signal. Once
	// done, the search stops gracefully at the next evaluation or
	// generation boundary and returns the best-so-far front with
	// Result.Partial set. Nil means never cancelled.
	Ctx context.Context
	// Checkpointer, when non-nil, receives a Snapshot after the initial
	// population and after every completed generation. A generation cut
	// short by cancellation is never checkpointed (its evaluations may
	// have been abandoned mid-flight), so every saved snapshot is an
	// exact resume point.
	Checkpointer Checkpointer
	// Resume restarts the search from a previously saved snapshot
	// instead of a fresh initial population. The snapshot must come
	// from an identically configured search (same space, options, seed
	// and island layout); a mismatch is an error.
	Resume *Snapshot
	// Problem tags what the evaluator computes — the program, its size,
	// the machine, the objectives, the noise — none of which the search
	// itself can see. It is saved in every snapshot, and a snapshot
	// tagged otherwise is not resumed: its members carry another
	// problem's objective values. Empty tags nothing.
	Problem string
}

// ctx returns the effective context.
func (c Control) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Checkpointer persists generation snapshots. Save is called from the
// search goroutine between generations; an error aborts the search.
// Every call receives a fresh Snapshot that the search never reads or
// writes again — down to the backing arrays of its configurations and
// objective vectors — so Save may keep it, or any part of it, as it is.
type Checkpointer interface {
	Save(*Snapshot) error
}

// Member is one serialized individual: its configuration and objective
// vector (nil = failed evaluation).
type Member struct {
	Config []int64   `json:"config"`
	Objs   []float64 `json:"objs"`
}

// IslandState is the complete serialized state of one search island at
// a generation boundary.
type IslandState struct {
	// Pop is the current population in index order.
	Pop []Member `json:"pop"`
	// Archive is the island's Pareto archive in insertion order —
	// re-adding the points in order reproduces the archive exactly.
	Archive []Member `json:"archive"`
	// Stagnant is the stagnation counter.
	Stagnant int `json:"stagnant"`
	// Draws is the island RNG's source draw count; a fresh generator
	// with the island's seed skipped by Draws continues the stream.
	Draws uint64 `json:"draws"`
}

// EvalState is one fresh evaluation result recorded since the previous
// snapshot. Resume primes the evaluation cache with these, so replayed
// proposals are free and E stays accurate across the interruption.
type EvalState struct {
	Config []int64   `json:"config"`
	Objs   []float64 `json:"objs"`
}

// Snapshot is a serializable picture of a search at a generation
// boundary: everything needed to continue as if never interrupted.
type Snapshot struct {
	// Method names the algorithm ("rs-gde3", "nsga2"), informational.
	Method string `json:"method"`
	// Fingerprint hashes the full search configuration (space, options,
	// seed, island layout). Resume refuses a mismatched snapshot.
	Fingerprint string `json:"fingerprint"`
	// Problem is the Control.Problem of the run that wrote the snapshot
	// (absent when it had none, or predates the tag). Resume refuses a
	// snapshot tagged for another problem.
	Problem string `json:"problem,omitempty"`
	// Generation is the number of completed generations (0 = initial
	// population evaluated, no generation stepped yet).
	Generation int `json:"generation"`
	// Evaluations is the cumulative E across the original run and all
	// resumed continuations up to this snapshot.
	Evaluations int `json:"evaluations"`
	// States holds one entry per island (one for the serial methods).
	States []IslandState `json:"states"`
	// Evals are the fresh evaluation results since the previous
	// snapshot (the whole history when snapshots are accumulated by a
	// journal loader): in batch order, or sorted by configuration when
	// concurrent islands produced them.
	Evals []EvalState `json:"evals,omitempty"`
}

// fingerprintOf hashes a sequence of search-defining values. The
// initial population is not one of them: generation 0, seeds included,
// is in every snapshot, and a resume reads it from there.
func fingerprintOf(parts ...interface{}) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// spaceKey folds a search space into fingerprint material.
func spaceKey(space skeleton.Space) string {
	h := fnv.New64a()
	for _, p := range space.Params {
		fmt.Fprintf(h, "%s/%d/%d/%d|", p.Name, int(p.Kind), p.Min, p.Max)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// gdeFingerprint identifies an RS-GDE3/GDE3 search configuration.
func gdeFingerprint(space skeleton.Space, opt Options, islands int, iopt IslandOptions) string {
	return fingerprintOf("gde", spaceKey(space), opt.PopSize, opt.CR, opt.F,
		opt.Stagnation, opt.MaxIterations, opt.Seed, opt.DisableRoughSet,
		islands, iopt.MigrationInterval, iopt.Migrants)
}

// nsga2Fingerprint identifies an NSGA-II search configuration. It
// hashes the rates beside the options, as it did when they were
// options, so the checkpoints written then still resume.
func nsga2Fingerprint(space skeleton.Space, opt Options, islands int, iopt IslandOptions) string {
	return fingerprintOf("nsga2", spaceKey(space), opt.PopSize, float64(nsga2CrossoverRate),
		nsga2MutationRate(space), opt.Stagnation, opt.MaxIterations, opt.Seed,
		islands, iopt.MigrationInterval, iopt.Migrants)
}

// cut copies v onto the end of *slab, which the caller sized to hold
// all it cuts, and returns the copy, capped so that an append to it
// cannot run into the next one; an empty v comes back nil, as
// append([]T(nil), v...) does. Every snapshot is cut from slabs of its
// own, so what a Checkpointer keeps of one is never written again.
func cut[T int64 | float64](slab *[]T, v []T) []T {
	if len(v) == 0 {
		return nil
	}
	n := len(*slab)
	*slab = append(*slab, v...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// evalTrace buffers fresh evaluation results between snapshots.
type evalTrace struct {
	mu      sync.Mutex
	pending []EvalState
}

// record is the batch observer: it buffers one evaluated batch's fresh
// results, in batch order, cut from one pair of slabs per batch.
func (t *evalTrace) record(cfgs []skeleton.Config, _ []string, objs [][]float64) {
	ni, nf := 0, 0
	for i, cfg := range cfgs {
		ni, nf = ni+len(cfg), nf+len(objs[i])
	}
	ints, floats := make([]int64, 0, ni), make([]float64, 0, nf)
	t.mu.Lock()
	for i, cfg := range cfgs {
		t.pending = append(t.pending, EvalState{Config: cut(&ints, cfg), Objs: cut(&floats, objs[i])})
	}
	t.mu.Unlock()
}

// drain hands over what was buffered since the last drain. The next
// interval's buffer starts at this one's size: generations are alike.
func (t *evalTrace) drain() []EvalState {
	t.mu.Lock()
	out := t.pending
	t.pending = make([]EvalState, 0, len(out))
	t.mu.Unlock()
	return out
}

// controlledRun wires a Control into one search: it binds the context
// to the shared evaluation cache, primes the cache from a resume
// snapshot, traces fresh evaluations for checkpointing, and accounts E
// across interruptions.
type controlledRun struct {
	eval        objective.Evaluator
	ctrl        Control
	method      string
	fingerprint string

	ce        *objective.CachingEvaluator
	trace     *evalTrace
	removeObs func()
	resumed   bool
	baseE     int
	e0        int
}

func newControlledRun(eval objective.Evaluator, ctrl Control, method, fingerprint string) *controlledRun {
	r := &controlledRun{eval: eval, ctrl: ctrl, method: method, fingerprint: fingerprint}
	if sc, ok := eval.(objective.SharedCacher); ok {
		r.ce = sc.SharedCache()
	}
	if r.ce != nil && ctrl.Ctx != nil {
		r.ce.SetContext(ctrl.Ctx)
	}
	if snap := ctrl.Resume; snap != nil {
		r.resumed = true
		r.baseE = snap.Evaluations
		if r.ce != nil {
			for _, e := range snap.Evals {
				r.ce.Prime(skeleton.Config(e.Config), e.Objs)
			}
		}
	}
	r.e0 = eval.Evaluations()
	if ctrl.Checkpointer != nil && r.ce != nil {
		r.trace = &evalTrace{}
		r.removeObs = r.ce.AddObserver(r.trace.record)
	}
	return r
}

// checkResume validates a resume snapshot against this search.
func (r *controlledRun) checkResume(islands int) error {
	snap := r.ctrl.Resume
	if snap == nil {
		return nil
	}
	if snap.Problem != "" && snap.Problem != r.ctrl.Problem {
		return fmt.Errorf("optimizer: checkpoint was written for another problem (tag %s, this search's is %q): program, size, machine, objectives or noise differ, and its members hold that problem's objective values",
			snap.Problem, r.ctrl.Problem)
	}
	// A fingerprint this search does not have is also what a warm-started
	// search leaves from builds whose fingerprints hashed the warm-start
	// seeds. The refusal wraps errors.ErrUnsupported, so that a caller
	// that owns the journal can tell it apart and start the search anew.
	if snap.Fingerprint != r.fingerprint {
		return fmt.Errorf("optimizer: checkpoint fingerprint %s does not match this search (%s %s): the snapshot was written by a differently configured run, or by a warm-started run of a build that hashed the warm-start seeds into the fingerprint; start the search anew: %w",
			snap.Fingerprint, r.method, r.fingerprint, errors.ErrUnsupported)
	}
	if len(snap.States) != islands {
		return fmt.Errorf("optimizer: checkpoint has %d island states, search expects %d", len(snap.States), islands)
	}
	return nil
}

// close detaches the run from the shared cache.
func (r *controlledRun) close() {
	if r.removeObs != nil {
		r.removeObs()
	}
	if r.ce != nil && r.ctrl.Ctx != nil {
		r.ce.SetContext(nil)
	}
}

// sync flushes evaluator layers with per-generation state (the
// surrogate screen) at a generation barrier: observations since the
// last barrier fold into the model in canonical order, so the layer's
// behavior depends on barrier counts, never on evaluation
// interleaving. A no-op for plain evaluators.
func (r *controlledRun) sync() {
	if gs, ok := r.eval.(objective.GenerationSyncer); ok {
		gs.SyncGeneration()
	}
}

// totalE is the cumulative E: for fresh runs the evaluator's absolute
// count (backward compatible with shared evaluators), for resumed runs
// the checkpointed count plus this continuation's fresh evaluations.
func (r *controlledRun) totalE() int {
	if r.resumed {
		return r.baseE + r.eval.Evaluations() - r.e0
	}
	return r.eval.Evaluations()
}

// save checkpoints the current state as generation gen.
func (r *controlledRun) save(islands []islandEvolver, gen int) error {
	if r.ctrl.Checkpointer == nil {
		return nil
	}
	snap := &Snapshot{
		Method:      r.method,
		Fingerprint: r.fingerprint,
		Problem:     r.ctrl.Problem,
		Generation:  gen,
		Evaluations: r.totalE(),
		States:      make([]IslandState, len(islands)),
	}
	for i, isl := range islands {
		snap.States[i] = isl.snapshot()
	}
	if r.trace != nil {
		snap.Evals = r.trace.drain()
		if len(islands) > 1 {
			// Concurrent islands hand their batches over in completion
			// order; the frame holds them in one order whatever that was.
			slices.SortFunc(snap.Evals, func(a, b EvalState) int { return slices.Compare(a.Config, b.Config) })
		}
	}
	return r.ctrl.Checkpointer.Save(snap)
}

// loop is the generation loop of every search: it evolves the islands
// in lockstep under the run's control, with a cancellation check at
// every generation boundary and a checkpoint after the initial
// population and after every completed generation. serial islands step
// one after another in order (race contenders share a budget, joint
// regions one generator); the others step concurrently. A generation
// that started is counted. At its barrier the evaluator layers sync,
// barrier (ring migration, race elimination) runs unless nil, and the
// state is saved — none of it once the context is done, since some of
// the generation's evaluations may have been abandoned. Returns the
// absolute generation count (continuing the snapshot's on resume) and
// whether the run was cut short.
func (r *controlledRun) loop(islands []islandEvolver, maxGens int, serial bool, barrier func(gen int)) (gens int, partial bool, err error) {
	ctx := r.ctrl.ctx()
	if r.ctrl.Resume != nil {
		gens = r.ctrl.Resume.Generation
	} else if ctx.Err() == nil {
		// Fresh run: checkpoint the evaluated initial population as
		// generation 0, so an interruption during the first
		// generations already has a resume point.
		if err := r.save(islands, 0); err != nil {
			return 0, false, err
		}
	}
	// Barrier 0: the initial populations (and any warm-start priming)
	// are in; train the surrogate before the first generation screens.
	r.sync()
	active := make([]islandEvolver, 0, len(islands))
	step := func(i int) { active[i].step() }
	for gens < maxGens {
		if ctx.Err() != nil {
			return gens, true, nil
		}
		active = active[:0]
		for _, isl := range islands {
			if !isl.done() {
				active = append(active, isl)
			}
		}
		if len(active) == 0 {
			break
		}
		if serial {
			for _, isl := range active {
				isl.step()
			}
		} else {
			spawn(len(active), step)
		}
		gens++
		if ctx.Err() != nil {
			return gens, true, nil
		}
		r.sync()
		if barrier != nil {
			barrier(gens)
		}
		if err := r.save(islands, gens); err != nil {
			return gens, false, err
		}
	}
	return gens, false, nil
}
