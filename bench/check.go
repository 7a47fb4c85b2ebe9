package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"autotune"
	"autotune/internal/export"
	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// noiseAmp is the simulated measurement noise every search in the
// benchmark runs with — the amplitude cmd/autotune uses.
const noiseAmp = 0.01

// cell names one tuning problem: the unit reference fronts are
// computed for and fresh evaluators are built for.
type cell struct {
	Kernel, Machine string
	Energy          bool
}

func (c cell) String() string { return fmt.Sprintf("%s|%s|energy=%v", c.Kernel, c.Machine, c.Energy) }

func (c cell) objectives() []objective.ObjectiveKind {
	if !c.Energy {
		return nil // the evaluator's default: time + resources
	}
	return []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}
}

// newSim builds a fresh simulated evaluator for the cell — the oracle
// front points are re-evaluated on.
func (c cell) newSim() (*objective.Sim, error) {
	k, err := kernels.ByName(c.Kernel)
	if err != nil {
		return nil, err
	}
	m, err := machine.ByName(c.Machine)
	if err != nil {
		return nil, err
	}
	return objective.NewSim(objective.SimConfig{Machine: m, Kernel: k, NoiseAmp: noiseAmp, Objectives: c.objectives()})
}

// refCell is a cell's brute-force reference front reduced to what
// front_quality needs: the normalisation box and the reference's own
// hypervolume in it.
type refCell struct {
	ideal, nadir []float64
	hv           float64
}

// reference sweeps a regular grid of the cell exhaustively (grid points
// per tile dimension, every thread count) and derives the box. This is
// the fixed-seed / reference-front / normalised-hypervolume protocol:
// quality is comparable across kernels and machines because every
// front is scored in its own cell's box.
func reference(c cell, grid int) (refCell, error) {
	k, err := kernels.ByName(c.Kernel)
	if err != nil {
		return refCell{}, err
	}
	m, err := machine.ByName(c.Machine)
	if err != nil {
		return refCell{}, err
	}
	points := make([]int, k.TileDims+1)
	for i := range points {
		points[i] = grid
	}
	points[k.TileDims] = m.Cores()
	opts := []autotune.Option{
		autotune.WithMachine(c.Machine), autotune.WithMethod(autotune.BruteForce),
		autotune.WithNoise(noiseAmp), autotune.WithGridPoints(points),
	}
	if c.Energy {
		opts = append(opts, autotune.WithEnergyObjective())
	}
	res, err := autotune.Tune(c.Kernel, opts...)
	if err != nil {
		return refCell{}, fmt.Errorf("reference front for %s: %w", c, err)
	}
	objs := objectivesOf(res.Front)
	ideal, nadir, err := pareto.IdealNadir(objs)
	if err != nil {
		return refCell{}, err
	}
	for i := range nadir {
		if nadir[i] <= ideal[i] {
			return refCell{}, fmt.Errorf("reference front for %s is degenerate in objective %d", c, i)
		}
	}
	hv, err := pareto.NormalizedHypervolume(objs, ideal, nadir)
	if err != nil || hv <= 0 {
		return refCell{}, fmt.Errorf("reference front for %s has no volume (%v)", c, err)
	}
	return refCell{ideal: ideal, nadir: nadir, hv: hv}, nil
}

// quality is the paper's V(S) for front, normalised in the reference's
// box and divided by the reference's own value; it may exceed 1 when
// the search finds points between the reference grid's.
func (r refCell) quality(front []pareto.Point) (float64, error) {
	hv, err := pareto.NormalizedHypervolume(objectivesOf(front), r.ideal, r.nadir)
	if err != nil {
		return 0, err
	}
	return hv / r.hv, nil
}

func objectivesOf(front []pareto.Point) [][]float64 {
	out := make([][]float64, len(front))
	for i, p := range front {
		out[i] = p.Objectives
	}
	return out
}

func frontJSON(front []pareto.Point, names []string) ([]byte, error) {
	var buf bytes.Buffer
	err := export.FrontJSON(&buf, front, names)
	return buf.Bytes(), err
}

// checkFront holds one front against the invariants every search
// output must meet; it returns the first violation, or "".
//
//   - the points are mutually non-dominated;
//   - every point, re-evaluated on a fresh simulator of its cell,
//     reproduces its objective vector exactly.
func checkFront(c cell, front []pareto.Point) string {
	if len(front) == 0 {
		return "empty front"
	}
	for i, p := range front {
		for j, q := range front {
			if i != j && pareto.Dominates(q.Objectives, p.Objectives) {
				return fmt.Sprintf("front point %d is dominated by point %d", i, j)
			}
		}
	}
	sim, err := c.newSim()
	if err != nil {
		return err.Error()
	}
	for i, p := range front {
		cfg, ok := p.Payload.(skeleton.Config)
		if !ok {
			return fmt.Sprintf("front point %d carries no configuration", i)
		}
		want := sim.EvaluateOne(cfg)
		if len(want) != len(p.Objectives) {
			return fmt.Sprintf("front point %d: %d objectives, a fresh evaluation gives %d", i, len(p.Objectives), len(want))
		}
		for d := range want {
			if want[d] != p.Objectives[d] {
				return fmt.Sprintf("front point %d objective %d = %v, a fresh evaluation gives %v", i, d, p.Objectives[d], want[d])
			}
		}
	}
	return ""
}

// golden remembers each op's serialized output from the first round
// checked; the same op in a later round must reproduce it byte for
// byte, traced or not.
type golden map[int][sha256.Size]byte

func (g golden) check(op int, data []byte) string {
	h := sha256.Sum256(data)
	if prev, ok := g[op]; !ok {
		g[op] = h
	} else if prev != h {
		return "output differs from the same op in an earlier round"
	}
	return ""
}
