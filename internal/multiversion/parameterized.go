package multiversion

import (
	"errors"
	"fmt"
)

// The paper (§IV) contrasts two code-specialization strategies: full
// multi-versioning (one compiled body per Pareto point — what Unit
// implements) and a single *parameterized* body reading its tile sizes
// and thread count at run time. Parameterization keeps the binary
// small and supports arbitrary configurations, but cannot express
// structural transformations (unrolling, fission/fusion) and denies
// the backend compiler constant-propagation opportunities. This file
// implements the parameterized alternative so the trade-off can be
// studied directly (see the dispatch ablation benchmark).

// ParamEntry executes the region with runtime-supplied parameters.
type ParamEntry func(tiles []int64, threads int) error

// Parameterized is the single-body counterpart of Unit: the same
// Pareto metadata table, but one generic entry point.
type Parameterized struct {
	Region         string
	ObjectiveNames []string
	Metas          []Meta
	Entry          ParamEntry
}

// FromUnit derives a parameterized region from a multi-versioned unit,
// discarding the specialized bodies in favour of the generic entry.
func FromUnit(u *Unit, entry ParamEntry) (*Parameterized, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if entry == nil {
		return nil, errors.New("multiversion: nil parameterized entry")
	}
	return &Parameterized{
		Region:         u.Region,
		ObjectiveNames: append([]string(nil), u.ObjectiveNames...),
		Metas:          u.Metas(),
		Entry:          entry,
	}, nil
}

// Invoke runs the configuration at the given metadata index.
func (p *Parameterized) Invoke(idx int) error {
	if idx < 0 || idx >= len(p.Metas) {
		return fmt.Errorf("multiversion: parameterized index %d out of range", idx)
	}
	m := p.Metas[idx]
	return p.Entry(m.Tiles, m.Threads)
}

// InvokeConfig runs an arbitrary configuration — the capability
// multi-versioning lacks: parameterized code can execute points
// outside the compiled Pareto set (e.g. interpolated configurations).
func (p *Parameterized) InvokeConfig(tiles []int64, threads int) error {
	if threads < 1 {
		return errors.New("multiversion: thread count must be positive")
	}
	return p.Entry(tiles, threads)
}
