package validate

// Tracing lowers MiniIR programs to memory-address streams for the
// cache simulator. Arrays are laid out consecutively in row-major order;
// every statement execution hands one address per read and write access
// to a sink, in program order, as it is computed: no trace is stored.
//
// Parallel loops distribute their (collapsed) iteration space
// block-wise over the requested number of threads, matching the static
// scheduling the paper's runtime uses, and tag each address with the
// thread that issues it.

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

// generate executes the program abstractly and hands every address to
// sink, with the thread that issues it. Sequential parts (and everything
// outside parallel loops) are attributed to thread 0. The outermost
// parallel loop encountered distributes its (collapsed) iterations
// block-wise over nThreads.
func generate(p *ir.Program, nThreads int, sink func(thread int, addr uint64)) error {
	if nThreads < 1 {
		return errors.New("validate: trace: nThreads must be >= 1")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	g := &generator{layout: newLayout(p), sink: sink, nThread: nThreads}
	return g.run(p.Root, map[string]int64{}, false)
}

type generator struct {
	layout  layout
	sink    func(thread int, addr uint64)
	thread  int
	nThread int
}

// emit hands the addresses of accesses under env to the sink.
func (g *generator) emit(accesses []ir.Access, env map[string]int64) error {
	for _, ac := range accesses {
		addr, err := g.layout.address(ac, env)
		if err != nil {
			return err
		}
		g.sink(g.thread, addr)
	}
	return nil
}

func (g *generator) run(ns []ir.Node, env map[string]int64, inParallel bool) error {
	for _, n := range ns {
		switch x := n.(type) {
		case *ir.Stmt:
			if err := g.emit(x.Reads, env); err != nil {
				return err
			}
			if err := g.emit(x.Writes, env); err != nil {
				return err
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
// over the threads and streams each thread's share in turn.
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
