package rts

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"autotune/internal/multiversion"
)

// rankCase is one policy input decoded from fuzz bytes.
type rankCase struct {
	u        *multiversion.Unit
	ctx      Context
	weights  []float64
	opt, con int
	budget   float64
	// meas are the measurements fed to Adaptive, per version.
	meas map[int][]float64
}

// decodeRankCase reads a header of six bytes — objective count (1-3),
// core budget (0-17), Optimize, Constrain, budget, weights seed — then
// one record per version: threads (1-16), one byte per objective and
// one byte of measurements. Values sit on a coarse grid, so ties are
// common.
func decodeRankCase(data []byte) (rankCase, bool) {
	if len(data) < 6 {
		return rankCase{}, false
	}
	m := 1 + int(data[0])%3
	c := rankCase{
		ctx:    Context{AvailableCores: int(data[1]) % 18},
		opt:    int(data[2]) % m,
		con:    int(data[3]) % m,
		budget: float64(data[4]%40)/4 - 1,
		meas:   map[int][]float64{},
	}
	for k := 0; k < m; k++ {
		c.weights = append(c.weights, float64((int(data[5])>>(2*k))%5)/4)
	}
	c.u = &multiversion.Unit{Region: "fuzz", ObjectiveNames: []string{"time", "resources", "energy"}[:m]}
	rec := data[6:]
	for i := 0; len(rec) >= m+2 && i < 24; i++ {
		v := multiversion.Version{Meta: multiversion.Meta{Threads: 1 + int(rec[0])%16}}
		for k := 1; k <= m; k++ {
			v.Meta.Objectives = append(v.Meta.Objectives, float64(rec[k]%32)/4)
		}
		b := rec[m+1]
		for j := 0; j < int(b%4); j++ {
			c.meas[i] = append(c.meas[i], float64(int(b>>2)+j)/8)
		}
		c.u.Versions = append(c.u.Versions, v)
		rec = rec[m+2:]
	}
	return c, len(c.u.Versions) > 0
}

// refFits lists the versions that fit the core budget, in index order.
func refFits(u *multiversion.Unit, ctx Context) []int {
	var fit []int
	for i, v := range u.Versions {
		if ctx.AvailableCores <= 0 || v.Meta.Threads <= ctx.AvailableCores {
			fit = append(fit, i)
		}
	}
	return fit
}

// refSortBy orders versions by key, ties by index.
func refSortBy(order []int, key func(int) float64) []int {
	sort.Slice(order, func(a, b int) bool {
		ka, kb := key(order[a]), key(order[b])
		return ka < kb || ka == kb && order[a] < order[b]
	})
	return order
}

// refWeighted sorts the feasible sub-table by its normalised weighted
// score, ties by index.
func refWeighted(u *multiversion.Unit, ctx Context, w []float64) []int {
	fit := refFits(u, ctx)
	score := map[int]float64{}
	for _, i := range fit {
		s := 0.0
		for c := range u.ObjectiveNames {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, j := range fit {
				lo, hi = min(lo, u.Versions[j].Meta.Objectives[c]), max(hi, u.Versions[j].Meta.Objectives[c])
			}
			norm := 0.0
			if hi > lo {
				norm = (u.Versions[i].Meta.Objectives[c] - lo) / (hi - lo)
			}
			s += w[c] * norm
		}
		score[i] = s
	}
	return refSortBy(fit, func(i int) float64 { return score[i] })
}

// refBudget is the versions within budget by the Optimize objective,
// then the rest by the Constrain objective, then filtered by cores.
func refBudget(u *multiversion.Unit, ctx Context, opt, con int, budget float64) []int {
	var within, beyond []int
	for i, v := range u.Versions {
		if v.Meta.Objectives[con] <= budget {
			within = append(within, i)
		} else {
			beyond = append(beyond, i)
		}
	}
	obj := func(c int) func(int) float64 {
		return func(i int) float64 { return u.Versions[i].Meta.Objectives[c] }
	}
	var out []int
	for _, i := range append(refSortBy(within, obj(opt)), refSortBy(beyond, obj(con))...) {
		if slices.Contains(refFits(u, ctx), i) {
			out = append(out, i)
		}
	}
	return out
}

// refMedian is the median of xs.
func refMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// refAdaptive is Adaptive at ε 0: the feasible versions by the median
// of their measurements, or by the static time objective when they
// have none.
func refAdaptive(u *multiversion.Unit, ctx Context, meas map[int][]float64) []int {
	return refSortBy(refFits(u, ctx), func(i int) float64 {
		if ms := meas[i]; len(ms) > 0 {
			return refMedian(ms)
		}
		return u.Versions[i].Meta.Objectives[0]
	})
}

// FuzzPolicyRankMatchesReference holds every built-in policy's ranking
// to a brute-force reference: the same versions in the same order, and
// an error exactly when no version fits the cores.
func FuzzPolicyRankMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 6, 0b0101, 1, 4, 4, 0, 10, 1, 5, 9, 40, 0, 2, 7})
	f.Add([]byte{1, 4, 0, 1, 17, 0b0001, 8, 4, 20, 3, 2, 8, 40, 6, 2, 12, 16, 0})
	f.Add([]byte{2, 10, 1, 2, 20, 0b010110, 1, 4, 4, 4, 7, 10, 2, 2, 2, 0, 40, 1, 3, 9, 30, 16, 0, 0, 0, 255})
	f.Add([]byte{0, 16, 0, 0, 3, 3, 15, 9, 100, 3, 9, 101, 0, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeRankCase(data)
		if !ok {
			return
		}
		// ε 0 never explores, which is what the reference models.
		a := &Adaptive{Epsilon: 0, Seed: 1}
		for i, ms := range c.meas {
			for _, x := range ms {
				a.Observe(i, x)
			}
		}
		for _, tc := range []struct {
			p    Policy
			want []int
		}{
			{WeightedSum{Weights: c.weights}, refWeighted(c.u, c.ctx, c.weights)},
			{FastestWithinBudget{Optimize: c.opt, Constrain: c.con, Budget: c.budget}, refBudget(c.u, c.ctx, c.opt, c.con, c.budget)},
			{a, refAdaptive(c.u, c.ctx, c.meas)},
		} {
			got, err := tc.p.Rank(c.u, c.ctx)
			if len(tc.want) == 0 {
				if err == nil {
					t.Fatalf("%s on %d cores: ranking %v, the reference finds no version that fits", tc.p.Name(), c.ctx.AvailableCores, got)
				}
				continue
			}
			if err != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("%s on %d cores: ranking %v, %v; reference %v", tc.p.Name(), c.ctx.AvailableCores, got, err, tc.want)
			}
		}
	})
}

// randomTable is a version table of n versions over m objectives, on a
// grid coarse enough for ties.
func randomTable(rng *rand.Rand, n, m int) *multiversion.Unit {
	u := &multiversion.Unit{Region: "r", ObjectiveNames: []string{"time", "resources", "energy"}[:m]}
	for i := 0; i < n; i++ {
		v := multiversion.Version{Meta: multiversion.Meta{Threads: 1 + rng.Intn(16)}}
		for c := 0; c < m; c++ {
			v.Meta.Objectives = append(v.Meta.Objectives, float64(rng.Intn(24))/4+0.25)
		}
		u.Versions = append(u.Versions, v)
	}
	return u
}

// randomWeights are m weights in {0, 0.25, ..., 1}.
func randomWeights(rng *rand.Rand, m int) []float64 {
	w := make([]float64, m)
	for c := range w {
		w[c] = float64(rng.Intn(5)) / 4
	}
	return w
}

// TestWeightedSumRankingScaleInvariant: multiplying one objective by a
// power of two rescales the normalisation exactly, so it leaves the
// weighted ranking unchanged, under every core budget.
func TestWeightedSumRankingScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(3)
		u := randomTable(rng, 1+rng.Intn(12), m)
		p := WeightedSum{Weights: randomWeights(rng, m)}
		c, scale := rng.Intn(m), math.Ldexp(1, rng.Intn(13)-6)
		scaled := &multiversion.Unit{Region: u.Region, ObjectiveNames: u.ObjectiveNames}
		for _, v := range u.Versions {
			v.Meta.Objectives = slices.Clone(v.Meta.Objectives)
			v.Meta.Objectives[c] *= scale
			scaled.Versions = append(scaled.Versions, v)
		}
		for _, cores := range pinCores {
			ctx := Context{AvailableCores: cores}
			want, errW := p.Rank(u, ctx)
			got, errG := p.Rank(scaled, ctx)
			if (errW == nil) != (errG == nil) || !slices.Equal(got, want) {
				t.Fatalf("trial %d: objective %d × %g on %d cores ranks %v (%v), unscaled %v (%v)", trial, c, scale, cores, got, errG, want, errW)
			}
		}
	}
}

// TestBudgetFirstChoiceIgnoresDominatedVersion: appending a version
// that an existing one dominates — no better objective and no fewer
// threads — never changes FastestWithinBudget's first choice.
func TestBudgetFirstChoiceIgnoresDominatedVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(3)
		u := randomTable(rng, 1+rng.Intn(12), m)
		p := FastestWithinBudget{Optimize: rng.Intn(m), Constrain: rng.Intn(m), Budget: float64(rng.Intn(28))/4 - 0.5}
		dom := u.Versions[rng.Intn(len(u.Versions))].Meta
		worse := multiversion.Meta{Threads: dom.Threads + rng.Intn(3)}
		for _, x := range dom.Objectives {
			worse.Objectives = append(worse.Objectives, x+float64(rng.Intn(3))/4)
		}
		grown := &multiversion.Unit{Region: u.Region, ObjectiveNames: u.ObjectiveNames,
			Versions: append(slices.Clone(u.Versions), multiversion.Version{Meta: worse})}
		for _, cores := range pinCores {
			ctx := Context{AvailableCores: cores}
			before, errB := p.Rank(u, ctx)
			after, errA := p.Rank(grown, ctx)
			if (errB == nil) != (errA == nil) || errB == nil && before[0] != after[0] {
				t.Fatalf("trial %d on %d cores: appending %v changed the first choice from %v (%v) to %v (%v)", trial, cores, worse, before, errB, after, errA)
			}
		}
	}
}

// TestWeightedSumDominatedVersionCanMoveChoice: the normalised weighted
// sum does not ignore dominated versions. (0, 10) and (10, 0) under
// weights (1, 1) select index 0; appending (20, 10), which (0, 10)
// dominates, widens the first objective's range and selects index 1.
func TestWeightedSumDominatedVersionCanMoveChoice(t *testing.T) {
	two := []string{"time", "resources"}
	p := WeightedSum{Weights: []float64{1, 1}}
	before, err := p.Rank(table(two, []float64{1, 0, 10}, []float64{1, 10, 0}), Context{})
	if err != nil || before[0] != 0 {
		t.Fatalf("two versions rank %v, %v; want 0 first", before, err)
	}
	after, err := p.Rank(table(two, []float64{1, 0, 10}, []float64{1, 10, 0}, []float64{1, 20, 10}), Context{})
	if err != nil || after[0] != 1 {
		t.Fatalf("with the dominated version appended rank %v, %v; want 1 first", after, err)
	}
}

// TestRankingsAreFeasibleSets: every ranking lists each version at most
// once and only versions that fit the cores — for WeightedSum,
// FastestWithinBudget and Adaptive (exploring or not) exactly the
// versions that fit. Fixed, which ignores cores, ranks its one version.
func TestRankingsAreFeasibleSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(3)
		u := randomTable(rng, 1+rng.Intn(12), m)
		explore := &Adaptive{Epsilon: 1, Seed: int64(trial)}
		for i := range u.Versions {
			if rng.Intn(2) == 0 {
				explore.Observe(i, rng.Float64())
			}
		}
		policies := []Policy{
			WeightedSum{Weights: randomWeights(rng, m)},
			FastestWithinBudget{Optimize: rng.Intn(m), Constrain: rng.Intn(m), Budget: float64(rng.Intn(28)) / 4},
			&Adaptive{Epsilon: 0.1, Seed: int64(trial)},
			explore,
		}
		for _, cores := range pinCores {
			ctx := Context{AvailableCores: cores}
			fit := refFits(u, ctx)
			for _, p := range policies {
				order, err := p.Rank(u, ctx)
				if len(fit) == 0 {
					if err == nil {
						t.Fatalf("trial %d: %s ranks %v on %d cores, where no version fits", trial, p.Name(), order, cores)
					}
					continue
				}
				if err != nil {
					t.Fatalf("trial %d: %s on %d cores: %v", trial, p.Name(), cores, err)
				}
				sorted := slices.Clone(order)
				slices.Sort(sorted)
				if !slices.Equal(sorted, fit) {
					t.Fatalf("trial %d: %s on %d cores ranks %v, the versions that fit are %v", trial, p.Name(), cores, order, fit)
				}
			}
			idx := rng.Intn(len(u.Versions))
			if order, err := (Fixed{Index: idx}).Rank(u, ctx); err != nil || !slices.Equal(order, []int{idx}) {
				t.Fatalf("trial %d: fixed %d on %d cores ranks %v, %v", trial, idx, cores, order, err)
			}
		}
	}
}
