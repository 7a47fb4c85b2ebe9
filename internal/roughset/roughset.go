// Package roughset implements the search-space reduction mechanism of
// RS-GDE3 (paper §III-B.4). Rough Set theory models imperfect
// knowledge through lower and upper approximations of a target set; in
// the auto-tuner the target is "the region of the parameter space
// containing non-dominated configurations".
//
// Following the construction the paper adopts from Durillo et al., the
// reduced search space is the largest axis-aligned hyper-rectangle that
// (a) encloses every non-dominated configuration of the most recent
// population and (b) is delimited by the coordinates of the dominated
// configurations surrounding them: in every dimension the nearest
// dominated coordinate below the non-dominated minimum becomes the new
// lower wall, and the nearest dominated coordinate above the
// non-dominated maximum becomes the new upper wall. Dimensions without
// such a wall keep the full space bound. The resulting box is the
// boundary B consulted by Algorithm 1's getClosestTo.
package roughset

import (
	"autotune/internal/skeleton"
)

// Reduce computes the reduced search space from the current
// population, split into non-dominated and dominated configurations.
//
//   - With no non-dominated points, the space cannot be narrowed and
//     the full box is returned.
//   - With no dominated points there are no walls, and the full box is
//     returned as well.
//
// The returned box always contains every non-dominated configuration.
func Reduce(space skeleton.Space, nonDom, dom []skeleton.Config) skeleton.Box {
	box := space.FullBox()
	if len(nonDom) == 0 || len(dom) == 0 {
		return box
	}
	for dim := range box.Lo {
		// Extent of the non-dominated set in this dimension.
		ndLo, ndHi := nonDom[0][dim], nonDom[0][dim]
		for _, c := range nonDom[1:] {
			if c[dim] < ndLo {
				ndLo = c[dim]
			}
			if c[dim] > ndHi {
				ndHi = c[dim]
			}
		}
		// Nearest dominated walls outside that extent, starting from
		// the full-space bounds the box still holds.
		lo, hi := box.Lo[dim], box.Hi[dim]
		for _, c := range dom {
			if v := c[dim]; v <= ndLo && v > lo {
				lo = v
			}
			if v := c[dim]; v >= ndHi && v < hi {
				hi = v
			}
		}
		box.Lo[dim] = lo
		box.Hi[dim] = hi
	}
	return box
}

// Split partitions a population into non-dominated and dominated
// configurations given their objective vectors (minimized). objs[i] is
// the objective vector of cfgs[i]. Configurations with nil objective
// vectors (failed evaluations) count as dominated.
func Split(cfgs []skeleton.Config, objs [][]float64,
	dominates func(a, b []float64) bool) (nonDom, dom []skeleton.Config) {
	for i, c := range cfgs {
		if objs[i] == nil {
			dom = append(dom, c)
			continue
		}
		isDominated := false
		for j := range cfgs {
			if i == j || objs[j] == nil {
				continue
			}
			if dominates(objs[j], objs[i]) {
				isDominated = true
				break
			}
		}
		if isDominated {
			dom = append(dom, c)
		} else {
			nonDom = append(nonDom, c)
		}
	}
	return nonDom, dom
}
