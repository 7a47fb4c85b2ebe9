package driver

// Model derivation: an analytical performance model
// (perfmodel.KernelModel) derived automatically from an analyzed MiniIR
// region, so programs supplied as text (internal/irparse) or built
// ad hoc can be tuned without a hand-written kernel model — the
// generic, compiler-based operation the paper targets ("does not
// depend on any analytical models or heuristics" holds for the
// optimizer; the model here substitutes for the paper's real target
// execution, see DESIGN.md §2).
//
// The derivation is purely structural: per-tile array footprints from
// the affine access coefficients, streaming byte costs from innermost
// stride classes, parallel iteration counts from the collapsed tile
// loops. It is less sharp than the hand-tuned kernel models (no
// cross-visit reuse terms) but preserves the mechanisms the optimizer
// needs: capacity cliffs per cache level, halo/footprint growth for
// small tiles, and load-balance granularity.

import (
	"fmt"

	"autotune/internal/analyzer"
	"autotune/internal/ir"
	"autotune/internal/perfmodel"
)

// access is the pre-analyzed form of one array reference.
type access struct {
	arrayDims []int64
	elemBytes int
	// coeffs[d][l] is |coefficient| of band-loop l in index dim d.
	coeffs [][]int64
	// innerClass classifies the access against the innermost loop:
	// 0 = invariant, 1 = unit stride (last index coeff ±1),
	// 2 = strided (line per access).
	innerClass int
	array      string
}

// derived carries everything the closures need.
type derived struct {
	trips     []int64 // trip count per band loop
	iters     float64 // total statement executions
	flopsPerI float64
	accPerI   float64
	accesses  []access
	parDepth  int // collapsed loops (1 or 2)
	totalData int64
	innerTrip func(tiles []int64) float64
}

// deriveModel builds a KernelModel for the region. Every loop bound in
// the nest must be constant (rectangular); triangular regions are
// rejected.
func deriveModel(p *ir.Program, region analyzer.Region) (*perfmodel.KernelModel, error) {
	loops := region.Loops
	if region.Band < 1 || region.Band > len(loops) {
		return nil, fmt.Errorf("driver: derive model: band %d out of range", region.Band)
	}
	d := &derived{parDepth: 1}
	if region.Collapsible && region.Band >= 2 {
		d.parDepth = 2
	}
	env := map[string]int64{}
	total := int64(1)
	for _, l := range loops {
		if !l.Lo.IsConst() || !l.Hi.IsConst() {
			return nil, fmt.Errorf("driver: derive model: loop %s has non-constant bounds", l.Var)
		}
		total *= l.TripCount(env)
	}
	d.iters = float64(total)
	for i, l := range loops {
		trip := l.TripCount(env)
		if trip < 1 {
			return nil, fmt.Errorf("driver: derive model: loop %s has empty range", l.Var)
		}
		if i < region.Band {
			d.trips = append(d.trips, trip)
		}
	}

	_, stmts := ir.PerfectNest(region.Root)
	if len(stmts) == 0 {
		return nil, fmt.Errorf("driver: derive model: region has no statements")
	}
	bandVars := make([]string, region.Band)
	for i := 0; i < region.Band; i++ {
		bandVars[i] = loops[i].Var
	}
	innermost := loops[len(loops)-1].Var
	seenArrays := map[string]int64{}
	for _, s := range stmts {
		d.flopsPerI += float64(s.Flops)
		for _, ac := range s.Accesses() {
			d.accPerI++
			arr, ok := p.ArrayByName(ac.Array)
			if !ok {
				return nil, fmt.Errorf("driver: derive model: unknown array %s", ac.Array)
			}
			seenArrays[arr.Name] = arr.Bytes()
			a := access{arrayDims: arr.Dims, elemBytes: arr.ElemBytes, array: arr.Name}
			for _, ix := range ac.Indices {
				row := make([]int64, region.Band)
				for l, v := range bandVars {
					c := ix.Coeff(v)
					if c < 0 {
						c = -c
					}
					row[l] = c
				}
				a.coeffs = append(a.coeffs, row)
			}
			// Innermost stride classification on the last index.
			last := ac.Indices[len(ac.Indices)-1]
			c := last.Coeff(innermost)
			if c < 0 {
				c = -c
			}
			switch {
			case c == 0 && !usesVar(ac, innermost):
				a.innerClass = 0
			case c == 1:
				a.innerClass = 1
			default:
				a.innerClass = 2
			}
			d.accesses = append(d.accesses, a)
		}
	}
	for _, b := range seenArrays {
		d.totalData += b
	}
	d.innerTrip = func(tiles []int64) float64 {
		if region.Band == len(loops) {
			t := tiles[region.Band-1]
			trip := d.trips[region.Band-1]
			if t > trip {
				t = trip
			}
			if t < 1 {
				t = 1
			}
			return float64(t)
		}
		return float64(loops[len(loops)-1].TripCount(env))
	}

	band := region.Band
	km := &perfmodel.KernelModel{
		Name:     p.Name,
		TileDims: band,
		Flops:    func(n int64) float64 { return d.iters * d.flopsPerI },
		Accesses: func(n int64) float64 { return d.iters * d.accPerI },
		WorkingSet: func(n int64, tiles []int64) int64 {
			return d.workingSet(tiles)
		},
		LevelTraffic: func(n int64, tiles []int64, c perfmodel.Capacity) float64 {
			return d.levelTraffic(tiles, c)
		},
		ParIters: func(n int64, tiles []int64) int64 {
			iters := int64(1)
			for l := 0; l < d.parDepth && l < band; l++ {
				iters *= ceilDiv(d.trips[l], clampTile(tiles[l], d.trips[l]))
			}
			return iters
		},
		InnerTrip: func(n int64, tiles []int64) float64 { return d.innerTrip(tiles) },
		TotalData: func(n int64) int64 { return d.totalData },
	}
	return km, nil
}

func usesVar(ac ir.Access, v string) bool {
	for _, ix := range ac.Indices {
		if ix.Coeff(v) != 0 {
			return true
		}
	}
	return false
}

func clampTile(t, trip int64) int64 {
	if t < 1 {
		return 1
	}
	if t > trip {
		return trip
	}
	return t
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// footprint returns one access's per-tile byte footprint: per array
// dimension the index sweeps an extent of 1 + Σ_l |c_l|·(T_l − 1)
// elements (clamped by the array dimension) while the band iterators
// move within one tile.
func (a access) footprint(tiles []int64, trips []int64) int64 {
	bytes := int64(a.elemBytes)
	for dim, row := range a.coeffs {
		extent := int64(1)
		for l, c := range row {
			if c == 0 {
				continue
			}
			t := clampTile(tiles[l], trips[l])
			extent += c * (t - 1)
		}
		if dim < len(a.arrayDims) && extent > a.arrayDims[dim] {
			extent = a.arrayDims[dim]
		}
		bytes *= extent
	}
	return bytes
}

// workingSet sums per-array maxima of the tile footprints.
func (d *derived) workingSet(tiles []int64) int64 {
	perArray := map[string]int64{}
	for _, a := range d.accesses {
		fp := a.footprint(tiles, d.trips)
		if fp > perArray[a.array] {
			perArray[a.array] = fp
		}
	}
	total := int64(0)
	for _, fp := range perArray {
		total += fp
	}
	return total
}

// levelTraffic: if the tile working set fits the per-thread share, each
// tile visit loads its footprint once; otherwise accesses stream at
// their innermost stride class cost. The streaming cost also caps the
// tiled cost so the function stays monotone in capacity.
func (d *derived) levelTraffic(tiles []int64, c perfmodel.Capacity) float64 {
	// Streaming bytes per statement execution.
	stream := 0.0
	innerTrip := d.innerTrip(tiles)
	if innerTrip < 1 {
		innerTrip = 1
	}
	for _, a := range d.accesses {
		switch a.innerClass {
		case 0:
			stream += float64(a.elemBytes) / innerTrip
		case 1:
			stream += float64(a.elemBytes)
		default:
			stream += 64
		}
	}
	streamBytes := d.iters * stream

	// Each visit loads the working set; float64 holds it exactly below
	// 2^53 bytes.
	ws := d.workingSet(tiles)
	if ws > c.PerThread {
		return streamBytes
	}
	tileCount := 1.0
	for l, trip := range d.trips {
		tileCount *= float64(ceilDiv(trip, clampTile(tiles[l], trip)))
	}
	tiled := tileCount * float64(ws)
	if tiled > streamBytes {
		return streamBytes
	}
	return tiled
}
