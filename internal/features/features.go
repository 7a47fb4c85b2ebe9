// Package features extracts static program features from MiniIR
// regions — the analogue of the Insieme infrastructure's
// "automatic evaluation of static ... program features to be used in
// program analysis and optimization" and the "extendable,
// compiler-deduced features characterizing the non-functional behavior
// of code regions" that annotate the runtime metadata (paper §IV).
//
// The extracted feature set characterizes a region's computational
// shape: loop structure, arithmetic intensity, access strides and
// footprints. The driver attaches them to emitted multi-versioned
// units so runtime policies (and external schedulers) can reason about
// regions without reanalyzing code.
package features

import (
	"fmt"

	"autotune/internal/ir"
)

// Set is one region's static feature vector.
type Set struct {
	// NestDepth is the depth of the outermost perfect loop nest.
	NestDepth int `json:"nestDepth"`
	// Statements counts statements in the region.
	Statements int `json:"statements"`
	// Iterations is the total statement-execution count (product of
	// constant trip counts), 0 when bounds are symbolic.
	Iterations int64 `json:"iterations"`
	// FlopsPerIteration sums statement flop counts at the innermost
	// level.
	FlopsPerIteration int64 `json:"flopsPerIteration"`
	// ReadsPerIteration / WritesPerIteration count accesses per
	// innermost iteration.
	ReadsPerIteration  int `json:"readsPerIteration"`
	WritesPerIteration int `json:"writesPerIteration"`
	// Arrays is the number of distinct arrays referenced.
	Arrays int `json:"arrays"`
	// FootprintBytes is the total size of referenced arrays.
	FootprintBytes int64 `json:"footprintBytes"`
	// UnitStrideFraction is the fraction of accesses whose innermost
	// index coefficient is exactly 1 (contiguous streaming).
	UnitStrideFraction float64 `json:"unitStrideFraction"`
	// ArithmeticIntensity is flops per byte accessed per iteration.
	ArithmeticIntensity float64 `json:"arithmeticIntensity"`
	// ReductionAccesses counts statements that read their own write
	// target (accumulations).
	ReductionAccesses int `json:"reductionAccesses"`
}

// Extract computes the feature set of the program's first top-level
// loop nest.
func Extract(p *ir.Program) (Set, error) {
	if err := p.Validate(); err != nil {
		return Set{}, fmt.Errorf("features: %w", err)
	}
	if len(p.Root) == 0 {
		return Set{}, fmt.Errorf("features: empty program")
	}
	loops, stmts := ir.PerfectNest(p.Root[0])
	if len(loops) == 0 {
		return Set{}, fmt.Errorf("features: no loop nest")
	}
	s := Set{NestDepth: len(loops), Statements: len(stmts)}

	// Iteration count when all bounds are constant.
	total := int64(1)
	constant := true
	env := map[string]int64{}
	for _, l := range loops {
		if !l.Lo.IsConst() || !l.Hi.IsConst() {
			constant = false
			break
		}
		total *= l.TripCount(env)
	}
	if constant {
		s.Iterations = total
	}

	innermost := loops[len(loops)-1].Var
	arrays := map[string]bool{}
	unitStride, totalAcc := 0, 0
	for _, st := range stmts {
		s.FlopsPerIteration += st.Flops
		s.ReadsPerIteration += len(st.Reads)
		s.WritesPerIteration += len(st.Writes)
		// The writes, then the reads, walked in place: Stmt.Accesses
		// would build a slice of them per statement.
		for _, acs := range [...][]ir.Access{st.Writes, st.Reads} {
			for _, ac := range acs {
				arrays[ac.Array] = true
				totalAcc++
				if len(ac.Indices) > 0 {
					last := ac.Indices[len(ac.Indices)-1]
					if last.Coeff(innermost) == 1 {
						unitStride++
					}
				}
			}
		}
		// Reduction detection: a read matching a write.
		for _, w := range st.Writes {
			for _, r := range st.Reads {
				if r.Array == w.Array && indicesEqual(r, w) {
					s.ReductionAccesses++
				}
			}
		}
	}
	s.Arrays = len(arrays)
	for name := range arrays {
		if a, ok := p.ArrayByName(name); ok {
			s.FootprintBytes += a.Bytes()
		}
	}
	if totalAcc > 0 {
		s.UnitStrideFraction = float64(unitStride) / float64(totalAcc)
	}
	bytesPerIter := 0
	for _, st := range stmts {
		for _, acs := range [...][]ir.Access{st.Writes, st.Reads} {
			for _, ac := range acs {
				if a, ok := p.ArrayByName(ac.Array); ok {
					bytesPerIter += a.ElemBytes
				}
			}
		}
	}
	if bytesPerIter > 0 {
		s.ArithmeticIntensity = float64(s.FlopsPerIteration) / float64(bytesPerIter)
	}
	return s, nil
}

func indicesEqual(a, b ir.Access) bool {
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if !a.Indices[i].Equal(b.Indices[i]) {
			return false
		}
	}
	return true
}

// AsMap renders the feature set as a flat map for metadata embedding.
func (s Set) AsMap() map[string]float64 {
	return map[string]float64{
		"nestDepth":           float64(s.NestDepth),
		"statements":          float64(s.Statements),
		"iterations":          float64(s.Iterations),
		"flopsPerIteration":   float64(s.FlopsPerIteration),
		"readsPerIteration":   float64(s.ReadsPerIteration),
		"writesPerIteration":  float64(s.WritesPerIteration),
		"arrays":              float64(s.Arrays),
		"footprintBytes":      float64(s.FootprintBytes),
		"unitStrideFraction":  s.UnitStrideFraction,
		"arithmeticIntensity": s.ArithmeticIntensity,
		"reductionAccesses":   float64(s.ReductionAccesses),
	}
}
