package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"autotune"
	"autotune/internal/pareto"
)

var (
	paperKernels  = []string{"mm", "dsyrk", "jacobi-2d", "3d-stencil", "n-body"}
	paperMachines = []string{"Westmere", "Barcelona"}

	// portfolioVariants are the uses of the search layers that the
	// default RS-GDE3 path does not reach. Stand-alone motpe costs 40x
	// the rest per search and would drown the round; it is timed in the
	// traced run only.
	portfolioVariants = []string{"gde3", "nsga2", "random", "grid", "race", "surrogate", "islands4", "energy"}
)

// searchOp is one library call: Tune of a kernel for a machine under a
// strategy variant and search seed.
type searchOp struct {
	Kernel, Machine, Variant string
	Seed                     int64
}

func (o searchOp) cell() cell { return cell{o.Kernel, o.Machine, o.Variant == "energy"} }

// options maps the op to the public Tune options.
func (o searchOp) options() []autotune.Option {
	opts := []autotune.Option{autotune.WithMachine(o.Machine), autotune.WithSeed(o.Seed), autotune.WithNoise(noiseAmp)}
	switch o.Variant {
	case "rs-gde3":
	case "gde3":
		opts = append(opts, autotune.WithMethod(autotune.GDE3))
	case "nsga2":
		opts = append(opts, autotune.WithMethod(autotune.NSGA2))
	case "random":
		opts = append(opts, autotune.WithMethod(autotune.RandomSearch))
	case "grid":
		opts = append(opts, autotune.WithMethod(autotune.GridSearch))
	case "motpe":
		opts = append(opts, autotune.WithMethod(autotune.MOTPE))
	case "race":
		opts = append(opts, autotune.WithRace(autotune.RaceOptions{}))
	case "surrogate":
		opts = append(opts, autotune.WithSurrogate(0))
	case "islands4":
		opts = append(opts, autotune.WithIslands(4, 5))
	case "energy":
		opts = append(opts, autotune.WithEnergyObjective())
	default:
		panic("bench: unknown search variant " + o.Variant)
	}
	return opts
}

// searchOps builds the op list. The search seeds are fixed lists (1..8
// per cell; 1..2 per cell and variant on the portfolio), the protocol's
// "fixed seed list": a search stops on stagnation, so its cost varies
// by +-40% with its seed, and 80 searches' mean E still moves 7% from
// one seed list to the next — more than any bound worth gating on. The
// benchmark seed derives the op order instead; the amount of work is
// the same for every seed.
func searchOps(seed int64, portfolio bool, maxOps int) []searchOp {
	var ops []searchOp
	if portfolio {
		for _, v := range portfolioVariants {
			for _, k := range []string{"mm", "jacobi-2d"} {
				for _, m := range paperMachines {
					for s := int64(1); s <= 2; s++ {
						ops = append(ops, searchOp{k, m, v, s})
					}
				}
			}
		}
	} else {
		for _, k := range paperKernels {
			for _, m := range paperMachines {
				for s := int64(1); s <= 8; s++ {
					ops = append(ops, searchOp{k, m, "rs-gde3", s})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if maxOps > 0 && maxOps < len(ops) {
		ops = ops[:maxOps]
	}
	return ops
}

func hashOps(ops interface{}) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", ops))))[:16]
}

// searchOut is the raw output of one search op.
type searchOut struct {
	front       []pareto.Point
	names       []string
	evaluations int
	err         error
}

type searchWorkload struct {
	e         *env
	portfolio bool
	ops       []searchOp
	refs      map[cell]refCell
	gold      golden
	// captures holds, per op, what the last traced round recorded for
	// the layer replays.
	captures map[int]*capture
	counts   layerCounts
}

func newSearchWorkload(e *env, portfolio bool) *searchWorkload {
	return &searchWorkload{e: e, portfolio: portfolio, ops: searchOps(e.seed, portfolio, e.sz.maxOps),
		gold: golden{}, captures: map[int]*capture{}}
}

func (w *searchWorkload) opCount() int       { return len(w.ops) }
func (w *searchWorkload) opListHash() string { return hashOps(w.ops) }
func (w *searchWorkload) close()             {}

// setup computes the brute-force reference front of every cell the op
// list touches, one step per cell.
func (w *searchWorkload) setup(st *stepTimer) error {
	refs, err := references(cellsOf(w.ops), w.e.sz.refGrid, st)
	w.refs = refs
	return err
}

func cellsOf(ops []searchOp) []cell {
	cells := make([]cell, len(ops))
	for i, o := range ops {
		cells[i] = o.cell()
	}
	return distinct(cells)
}

// distinct lists the distinct cells in a canonical order, so set-up
// takes the same steps whatever the op order.
func distinct(cells []cell) []cell {
	seen := map[cell]bool{}
	var out []cell
	for _, c := range cells {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].String() < out[b].String() })
	return out
}

func references(cells []cell, grid int, st *stepTimer) (map[cell]refCell, error) {
	refs := map[cell]refCell{}
	for _, c := range cells {
		r, err := reference(c, grid)
		if err != nil {
			return nil, err
		}
		refs[c] = r
		st.mark()
	}
	return refs, nil
}

// round is the closed loop of one caller: each op starts when the
// previous one returned. Untraced ops are the public autotune.Tune;
// traced ops run the same pipeline decomposed so each layer boundary
// gets a span, and check holds both to the same golden output.
func (w *searchWorkload) round(tr *tracer) ([]time.Duration, []opOutcome, error) {
	out := make([]opOutcome, len(w.ops))
	steps := make([]time.Duration, len(w.ops))
	for i, op := range w.ops {
		t0 := time.Now()
		so := &searchOut{}
		if tr == nil {
			res, err := autotune.Tune(op.Kernel, op.options()...)
			if err != nil {
				so.err = err
			} else {
				so.front, so.names, so.evaluations = res.Front, res.Unit.ObjectiveNames, res.Evaluations
			}
		} else {
			var cp *capture
			so, cp = decomposedTune(tr, i, op, &w.counts)
			w.captures[i] = cp
		}
		steps[i] = time.Since(t0)
		out[i] = opOutcome{latency: steps[i], out: so}
	}
	return steps, out, nil
}

func (w *searchWorkload) check(ops []opOutcome) {
	for i := range ops {
		so := ops[i].out.(*searchOut)
		ops[i].out = nil
		if so.err != nil {
			ops[i].failure = so.err.Error()
			continue
		}
		c := w.ops[i].cell()
		if msg := checkFront(c, so.front); msg != "" {
			ops[i].failure = msg
			continue
		}
		data, err := frontJSON(so.front, so.names)
		if err != nil {
			ops[i].failure = err.Error()
			continue
		}
		if msg := w.gold.check(i, data); msg != "" {
			ops[i].failure = msg
			continue
		}
		q, err := w.refs[c].quality(so.front)
		if err != nil {
			ops[i].failure = err.Error()
			continue
		}
		ops[i].evals, ops[i].quality = float64(so.evaluations), q
	}
}
