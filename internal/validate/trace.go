package validate

// Tracing lowers MiniIR programs to memory-address traces for the cache
// simulator. Arrays are laid out consecutively in row-major order;
// every statement execution emits one address per read and write
// access.
//
// Parallel loops distribute their (collapsed) iteration space
// block-wise over the requested number of threads, matching the static
// scheduling the paper's runtime uses, and produce one sub-trace per
// thread.

import (
	"errors"
	"fmt"

	"autotune/internal/ir"
)

// layout maps each array to its base address.
type layout struct {
	base map[string]uint64
	// strides[name][d] is the byte stride of dimension d.
	strides map[string][]uint64
}

// newLayout assigns consecutive, 64-byte-aligned base addresses.
func newLayout(p *ir.Program) layout {
	l := layout{base: map[string]uint64{}, strides: map[string][]uint64{}}
	addr := uint64(64) // keep 0 free
	for _, a := range p.Arrays {
		l.base[a.Name] = addr
		strides := make([]uint64, len(a.Dims))
		s := uint64(a.ElemBytes)
		for d := len(a.Dims) - 1; d >= 0; d-- {
			strides[d] = s
			s *= uint64(a.Dims[d])
		}
		l.strides[a.Name] = strides
		addr += s
		addr = (addr + 63) &^ 63
	}
	return l
}

// address computes the byte address of an access under env.
func (l layout) address(ac ir.Access, env map[string]int64) (uint64, error) {
	base, ok := l.base[ac.Array]
	if !ok {
		return 0, fmt.Errorf("validate: trace: unknown array %s", ac.Array)
	}
	strides := l.strides[ac.Array]
	if len(ac.Indices) != len(strides) {
		return 0, fmt.Errorf("validate: trace: access %s dimension mismatch", ac.String())
	}
	addr := base
	for d, ix := range ac.Indices {
		v := ix.Eval(env)
		if v < 0 {
			return 0, fmt.Errorf("validate: trace: negative index %d in %s", v, ac.String())
		}
		addr += uint64(v) * strides[d]
	}
	return addr, nil
}

// generate executes the program abstractly and returns one address
// trace per thread. Sequential parts (and everything outside parallel
// loops) are attributed to thread 0. The outermost parallel loop
// encountered distributes its (collapsed) iterations block-wise over
// nThreads. maxAccesses caps the total trace length to protect against
// accidentally tracing huge programs; 0 means no cap.
func generate(p *ir.Program, nThreads int, maxAccesses int) ([][]uint64, error) {
	if nThreads < 1 {
		return nil, errors.New("validate: trace: nThreads must be >= 1")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		layout:  newLayout(p),
		traces:  make([][]uint64, nThreads),
		thread:  0,
		nThread: nThreads,
		cap:     maxAccesses,
	}
	if err := g.run(p.Root, map[string]int64{}, false); err != nil {
		return nil, err
	}
	return g.traces, nil
}

type generator struct {
	layout  layout
	traces  [][]uint64
	thread  int
	nThread int
	cap     int
	total   int
}

var errTraceCap = errors.New("validate: trace: access cap exceeded")

func (g *generator) emit(addr uint64) error {
	if g.cap > 0 && g.total >= g.cap {
		return errTraceCap
	}
	g.traces[g.thread] = append(g.traces[g.thread], addr)
	g.total++
	return nil
}

func (g *generator) run(ns []ir.Node, env map[string]int64, inParallel bool) error {
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Stmt:
			for _, ac := range x.Reads {
				addr, err := g.layout.address(ac, env)
				if err != nil {
					return err
				}
				if err := g.emit(addr); err != nil {
					return err
				}
			}
			for _, ac := range x.Writes {
				addr, err := g.layout.address(ac, env)
				if err != nil {
					return err
				}
				if err := g.emit(addr); err != nil {
					return err
				}
			}
		case *ir.Loop:
			if x.Parallel && !inParallel && g.nThread > 1 {
				if err := g.runParallel(x, env); err != nil {
					return err
				}
				continue
			}
			lo, hi := x.Lo.Eval(env), x.EffectiveHi(env)
			for v := lo; v < hi; v += x.Step {
				env[x.Var] = v
				if err := g.run(x.Body, env, inParallel); err != nil {
					return err
				}
			}
			delete(env, x.Var)
		}
	}
	return nil
}

// runParallel distributes the collapsed iteration space of l block-wise
// over the threads and generates each thread's sub-trace.
func (g *generator) runParallel(l *ir.Loop, env map[string]int64) error {
	// Collect the collapsed loop chain.
	chain := []*ir.Loop{l}
	cur := l
	for len(chain) < max(l.Collapse, 1) {
		if len(cur.Body) != 1 {
			return fmt.Errorf("validate: trace: collapse %d exceeds perfect nest", l.Collapse)
		}
		inner, ok := cur.Body[0].(*ir.Loop)
		if !ok {
			return fmt.Errorf("validate: trace: collapse %d exceeds loop nest", l.Collapse)
		}
		chain = append(chain, inner)
		cur = inner
	}
	// Collapsed loops must be rectangular w.r.t. each other; bounds may
	// still reference iterators outside the chain (already in env).
	trips := make([]int64, len(chain))
	total := int64(1)
	for i, cl := range chain {
		trips[i] = cl.TripCount(env)
		total *= trips[i]
	}
	if total == 0 {
		return nil
	}
	body := chain[len(chain)-1].Body
	savedThread := g.thread
	defer func() { g.thread = savedThread }()
	// Static block distribution: thread t gets iterations
	// [t*total/n, (t+1)*total/n).
	for t := 0; t < g.nThread; t++ {
		g.thread = t
		lo := int64(t) * total / int64(g.nThread)
		hi := int64(t+1) * total / int64(g.nThread)
		for it := lo; it < hi; it++ {
			// Decode the flat index into per-loop iterations.
			rest := it
			for i := len(chain) - 1; i >= 0; i-- {
				idx := rest % trips[i]
				rest /= trips[i]
				env[chain[i].Var] = chain[i].Lo.Eval(env) + idx*chain[i].Step
			}
			if err := g.run(body, env, true); err != nil {
				return err
			}
		}
	}
	for _, cl := range chain {
		delete(env, cl.Var)
	}
	return nil
}
