package multiversion

// A selection over the version table is a ranking: the runtime
// system's policies are orderings of the versions, and its fallback
// machinery walks one when the preferred version fails, so the retry
// order keeps following the active policy instead of degrading to an
// arbitrary version.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// weightedScores returns the weighted-sum score Σ w_c · f̂_c(v) of
// every version, over objectives normalized to [0,1] across the table.
// Weights need not sum to 1; negative weights are rejected.
func (u *Unit) weightedScores(weights []float64) ([]float64, error) {
	if len(weights) != len(u.ObjectiveNames) {
		return nil, fmt.Errorf("multiversion: %d weights for %d objectives", len(weights), len(u.ObjectiveNames))
	}
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, errors.New("multiversion: weights must be non-negative")
		}
	}
	if len(u.Versions) == 0 {
		return nil, errors.New("multiversion: empty version table")
	}
	m := len(u.ObjectiveNames)
	lo := make([]float64, m)
	hi := make([]float64, m)
	for c := 0; c < m; c++ {
		lo[c], hi[c] = math.Inf(1), math.Inf(-1)
		for _, v := range u.Versions {
			x := v.Meta.Objectives[c]
			if x < lo[c] {
				lo[c] = x
			}
			if x > hi[c] {
				hi[c] = x
			}
		}
	}
	scores := make([]float64, len(u.Versions))
	for i, v := range u.Versions {
		score := 0.0
		for c := 0; c < m; c++ {
			span := hi[c] - lo[c]
			norm := 0.0
			if span > 0 {
				norm = (v.Meta.Objectives[c] - lo[c]) / span
			}
			score += weights[c] * norm
		}
		scores[i] = score
	}
	return scores, nil
}

// SelectWeighted returns the index of the version minimizing the
// weighted sum Σ w_c · f̂_c(v) over objectives normalized to [0,1]
// across the table — the runtime policy described in the paper's §IV:
// the first element of RankWeighted.
func (u *Unit) SelectWeighted(weights []float64) (int, error) {
	order, err := u.RankWeighted(weights)
	if err != nil {
		return 0, err
	}
	return order[0], nil
}

// RankWeighted returns every version index ordered by ascending
// weighted-sum score, ties broken by index. Weights need not sum to 1;
// negative weights are rejected.
func (u *Unit) RankWeighted(weights []float64) ([]int, error) {
	scores, err := u.weightedScores(weights)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] < scores[order[b]]
	})
	return order, nil
}

// RankConstrained returns every version index with the versions whose
// `constrain` objective stays within budget first, ordered by ascending
// `optimize` objective, then the out-of-budget rest ordered by
// ascending constrained objective (the graceful-degradation order);
// ties keep index order.
func (u *Unit) RankConstrained(optimize, constrain int, budget float64) ([]int, error) {
	m := len(u.ObjectiveNames)
	if optimize < 0 || optimize >= m || constrain < 0 || constrain >= m {
		return nil, errors.New("multiversion: objective index out of range")
	}
	if len(u.Versions) == 0 {
		return nil, errors.New("multiversion: empty version table")
	}
	var within, beyond []int
	for i, v := range u.Versions {
		if v.Meta.Objectives[constrain] <= budget {
			within = append(within, i)
		} else {
			beyond = append(beyond, i)
		}
	}
	sort.SliceStable(within, func(a, b int) bool {
		return u.Versions[within[a]].Meta.Objectives[optimize] < u.Versions[within[b]].Meta.Objectives[optimize]
	})
	sort.SliceStable(beyond, func(a, b int) bool {
		return u.Versions[beyond[a]].Meta.Objectives[constrain] < u.Versions[beyond[b]].Meta.Objectives[constrain]
	})
	return append(within, beyond...), nil
}
