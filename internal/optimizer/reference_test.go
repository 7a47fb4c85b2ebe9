package optimizer

// The ranking, crowding, truncation, ordering, index-picking and
// population-split functions exactly as they stood before the arena
// rebuild (peel-based sort, sort.Slice, map-based rejection, the
// all-pairs roughset.Split), kept as references: the table tests and
// fuzzers below hold the arena versions to the same output — the same
// ranks in the same order, the same kept individuals in the same
// order, the same picks after the same number of RNG draws.

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"autotune/internal/pareto"
	"autotune/internal/roughset"
	"autotune/internal/skeleton"
)

func refTruncate(pop []individual, popSize int) []individual {
	ranks := refNonDominatedSort(pop)
	out := make([]individual, 0, popSize)
	for _, rank := range ranks {
		if len(out)+len(rank) <= popSize {
			for _, i := range rank {
				out = append(out, pop[i])
			}
			continue
		}
		remaining := popSize - len(out)
		if remaining <= 0 {
			break
		}
		dist := refCrowdingDistance(pop, rank)
		order := make([]int, len(rank))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return dist[order[a]] > dist[order[b]] })
		for _, oi := range order[:remaining] {
			out = append(out, pop[rank[oi]])
		}
		break
	}
	return out
}

func refNonDominatedSort(pop []individual) [][]int {
	var failed []int
	alive := make([]int, 0, len(pop))
	for i := range pop {
		if pop[i].objs == nil {
			failed = append(failed, i)
		} else {
			alive = append(alive, i)
		}
	}
	var ranks [][]int
	remaining := alive
	for len(remaining) > 0 {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && pareto.Dominates(pop[j].objs, pop[i].objs) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		if len(front) == 0 {
			// All mutually "dominated" cannot happen with a strict
			// dominance relation, but guard against infinite loops.
			front = remaining
			rest = nil
		}
		ranks = append(ranks, front)
		remaining = rest
	}
	if len(failed) > 0 {
		ranks = append(ranks, failed)
	}
	return ranks
}

func refCrowdingDistance(pop []individual, front []int) []float64 {
	n := len(front)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	m := len(pop[front[0]].objs)
	order := make([]int, n)
	for obj := 0; obj < m; obj++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return pop[front[order[a]]].objs[obj] < pop[front[order[b]]].objs[obj]
		})
		lo := pop[front[order[0]]].objs[obj]
		hi := pop[front[order[n-1]]].objs[obj]
		dist[order[0]] = math.Inf(1)
		dist[order[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < n-1; k++ {
			dist[order[k]] += (pop[front[order[k+1]]].objs[obj] - pop[front[order[k-1]]].objs[obj]) / (hi - lo)
		}
	}
	return dist
}

func refOrderBestToWorst(pop []individual) []int {
	ranks := refNonDominatedSort(pop)
	out := make([]int, 0, len(pop))
	for _, rank := range ranks {
		dist := refCrowdingDistance(pop, rank)
		order := make([]int, len(rank))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := dist[order[a]], dist[order[b]]
			if da != db {
				return da > db
			}
			return rank[order[a]] < rank[order[b]]
		})
		for _, oi := range order {
			out = append(out, rank[oi])
		}
	}
	return out
}

func refPickDistinct(rng randInterface, n, self, k int) []int {
	out := make([]int, 0, k)
	if n <= k {
		// Tiny populations: allow repeats rather than spinning, but
		// still never hand back self.
		for len(out) < k {
			x := rng.Intn(n)
			if x == self && n > 1 {
				continue
			}
			out = append(out, x)
		}
		return out
	}
	used := map[int]bool{self: true}
	for len(out) < k {
		x := rng.Intn(n)
		if !used[x] {
			used[x] = true
			out = append(out, x)
		}
	}
	return out
}

func refSplitPop(pop []individual) (nonDom, dom []skeleton.Config) {
	cfgs := make([]skeleton.Config, len(pop))
	objs := make([][]float64, len(pop))
	for i := range pop {
		cfgs[i] = pop[i].cfg
		objs[i] = pop[i].objs
	}
	return roughset.Split(cfgs, objs, pareto.Dominates)
}

// popOf builds a population whose configurations carry the member's
// index, so an individual can be recognized after selection.
func popOf(objs ...[]float64) []individual {
	pop := make([]individual, len(objs))
	for i, o := range objs {
		pop[i] = individual{cfg: skeleton.Config{int64(i)}, objs: o}
	}
	return pop
}

// rankingCases are hand-built populations around every special case of
// the ranking: nothing to rank, nothing successful, nothing distinct,
// ties in one objective (which are dominance), infinities, NaN (which
// the sweep must hand to the general path), and one, two and three
// objectives.
func rankingCases() map[string][]individual {
	inf, nan := math.Inf(1), math.NaN()
	return map[string][]individual{
		"empty":                nil,
		"single":               popOf([]float64{1, 2}),
		"all failed":           popOf(nil, nil, nil),
		"all equal":            popOf([]float64{2, 2}, []float64{2, 2}, []float64{2, 2}, []float64{2, 2}),
		"duplicates":           popOf([]float64{1, 3}, []float64{2, 2}, []float64{1, 3}, nil, []float64{2, 2}, []float64{3, 1}, []float64{3, 3}, []float64{3, 3}),
		"tie in f0":            popOf([]float64{1, 5}, []float64{1, 4}, []float64{1, 4}, []float64{1, 6}, []float64{0, 9}),
		"tie in f1":            popOf([]float64{5, 1}, []float64{4, 1}, []float64{6, 1}, []float64{4, 1}, []float64{9, 0}),
		"chain":                popOf([]float64{4, 4}, []float64{1, 1}, []float64{3, 3}, []float64{2, 2}, []float64{5, 5}),
		"one front":            popOf([]float64{0, 9}, []float64{9, 0}, []float64{3, 6}, []float64{6, 3}, []float64{4, 5}, []float64{5, 4}),
		"failed between":       popOf(nil, []float64{2, 2}, nil, []float64{1, 1}, []float64{1, 3}, nil),
		"infinities":           popOf([]float64{inf, 0}, []float64{0, inf}, []float64{-inf, inf}, []float64{inf, inf}, []float64{-inf, -inf}, []float64{1, 1}, []float64{inf, 0}),
		"signed zero":          popOf([]float64{math.Copysign(0, -1), 1}, []float64{0, 1}, []float64{0, 0}, []float64{math.Copysign(0, -1), 2}),
		"nan":                  popOf([]float64{nan, 1}, []float64{2, 2}, []float64{3, nan}, []float64{1, 1}, []float64{nan, nan}, nil),
		"nan chain":            popOf([]float64{1, nan}, []float64{2, 5}, []float64{nan, 6}, []float64{0, 7}),
		"one objective":        popOf([]float64{3}, []float64{1}, []float64{2}, []float64{1}, nil),
		"three objectives":     popOf([]float64{1, 2, 3}, []float64{3, 2, 1}, []float64{2, 2, 2}, []float64{3, 3, 3}, []float64{1, 2, 3}, []float64{4, 4, 4}, nil, []float64{0, 5, 5}),
		"three objectives nan": popOf([]float64{1, nan, 3}, []float64{2, 2, 2}, []float64{nan, 1, nan}, []float64{3, 3, 3}),
		"mixed lengths":        popOf([]float64{1, 1}, []float64{0, 0, 0}, []float64{2, 2}, []float64{}, []float64{1, 1, 1}),
	}
}

// sameFloats compares bit patterns, so NaN equals NaN and -0 differs
// from +0.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameRanks compares rank lists, treating nil and empty alike.
func sameRanks(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// members lists which individuals a population holds, by the index
// popOf stored in their configuration.
func members(pop []individual) []int {
	out := make([]int, len(pop))
	for i, ind := range pop {
		out[i] = int(ind.cfg[0])
	}
	return out
}

func configIDs(cfgs []skeleton.Config) []int {
	out := make([]int, len(cfgs))
	for i, c := range cfgs {
		out[i] = int(c[0])
	}
	return out
}

// checkAgainstReference holds every arena function to its reference on
// one population, at every truncation size up to one past its length
// (popSize ≥ len included). The arena is the caller's, so a sequence of
// calls also covers a warm arena that last held a different population.
func checkAgainstReference(t *testing.T, a *arena, pop []individual) {
	t.Helper()
	wantRanks := refNonDominatedSort(pop)
	if got := a.nonDominatedSort(pop); !sameRanks(got, wantRanks) {
		t.Fatalf("nonDominatedSort = %v, reference %v", got, wantRanks)
	}
	for r, rank := range wantRanks {
		for _, i := range rank {
			if a.rankOf[i] != r {
				t.Fatalf("rankOf[%d] = %d, reference rank %d", i, a.rankOf[i], r)
			}
		}
	}
	for _, rank := range wantRanks {
		if len(rank) == 0 || pop[rank[0]].objs == nil {
			continue
		}
		uniform := true
		for _, i := range rank {
			if len(pop[i].objs) != len(pop[rank[0]].objs) {
				uniform = false // crowding indexes every member by the first one's objective count
			}
		}
		if !uniform {
			continue
		}
		if got, want := a.crowdingDistance(pop, rank), refCrowdingDistance(pop, rank); !sameFloats(got, want) {
			t.Fatalf("crowdingDistance(%v) = %v, reference %v", rank, got, want)
		}
	}
	if !uniformObjectives(pop) {
		return
	}
	if got, want := a.orderBestToWorst(pop), refOrderBestToWorst(pop); !slices.Equal(got, want) {
		t.Fatalf("orderBestToWorst = %v, reference %v", got, want)
	}
	for size := 0; size <= len(pop)+1; size++ {
		if got, want := members(a.truncate(pop, size, nil)), members(refTruncate(pop, size)); !slices.Equal(got, want) {
			t.Fatalf("truncate(%d) kept %v, reference %v", size, got, want)
		}
	}
	gotND, gotD := a.splitPop(pop)
	wantND, wantD := refSplitPop(pop)
	if !slices.Equal(configIDs(gotND), configIDs(wantND)) || !slices.Equal(configIDs(gotD), configIDs(wantD)) {
		t.Fatalf("splitPop = %v | %v, reference %v | %v", configIDs(gotND), configIDs(gotD), configIDs(wantND), configIDs(wantD))
	}
}

// uniformObjectives reports whether every successful member has the
// same number of objectives — what every real evaluator produces, and
// what crowding distance (old and new) requires of a rank.
func uniformObjectives(pop []individual) bool {
	m := -1
	for _, ind := range pop {
		if ind.objs == nil {
			continue
		}
		if m >= 0 && len(ind.objs) != m {
			return false
		}
		m = len(ind.objs)
	}
	return true
}

func TestRankingMatchesReference(t *testing.T) {
	var shared arena // carried across cases: every case but the first runs on a warm arena
	for name, pop := range rankingCases() {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, new(arena), pop)
			checkAgainstReference(t, &shared, pop)
		})
	}
}

// TestGDE3SelectMatchesReference: the double-buffered replacement step
// keeps what the allocating one kept, generation after generation, and
// never hands back storage that still is the population it was given.
func TestGDE3SelectMatchesReference(t *testing.T) {
	refSelect := func(pop []individual, trials []skeleton.Config, trialObjs [][]float64, popSize int) []individual {
		next := make([]individual, 0, 2*len(pop))
		for i := range pop {
			parent := pop[i]
			trial := individual{cfg: trials[i], objs: trialObjs[i]}
			switch {
			case trial.objs == nil:
				next = append(next, parent)
			case parent.objs == nil:
				next = append(next, trial)
			case pareto.WeaklyDominates(trial.objs, parent.objs):
				next = append(next, trial)
			case pareto.Dominates(parent.objs, trial.objs):
				next = append(next, parent)
			default:
				next = append(next, parent, trial)
			}
		}
		if len(next) <= popSize {
			return next
		}
		return refTruncate(next, popSize)
	}
	rng := fuzzRand{data: []byte("gde3 select reference stream"), n: new(int)}
	const popSize = 12
	draw := func(id int) individual {
		if rng.Intn(7) == 0 {
			return individual{cfg: skeleton.Config{int64(id)}}
		}
		return individual{cfg: skeleton.Config{int64(id)}, objs: []float64{float64(rng.Intn(6)), float64(rng.Intn(6))}}
	}
	var a arena
	pop := make([]individual, popSize)
	for i := range pop {
		pop[i] = draw(i)
	}
	ref := append([]individual(nil), pop...)
	for gen := 1; gen <= 40; gen++ {
		trials := make([]skeleton.Config, len(pop))
		trialObjs := make([][]float64, len(pop))
		for i := range trials {
			tr := draw(gen*100 + i)
			trials[i], trialObjs[i] = tr.cfg, tr.objs
		}
		before := append([]individual(nil), pop...)
		next := a.gde3Select(pop, trials, trialObjs, popSize)
		ref = refSelect(ref, trials, trialObjs, popSize)
		if !slices.Equal(members(next), members(ref)) {
			t.Fatalf("generation %d: kept %v, reference %v", gen, members(next), members(ref))
		}
		if len(next) > 0 && len(pop) > 0 && &next[0] == &pop[0] {
			t.Fatalf("generation %d: the next population overwrote the one it was selected from", gen)
		}
		if !slices.Equal(members(pop), members(before)) {
			t.Fatalf("generation %d: selection wrote into its input population", gen)
		}
		pop = next
	}
}

// fuzzRand is a deterministic randInterface over fuzz bytes that counts
// its draws; two instances over the same bytes produce the same stream.
type fuzzRand struct {
	data []byte
	n    *int
}

func (f fuzzRand) Intn(n int) int {
	*f.n++
	if len(f.data) == 0 {
		return *f.n % n
	}
	// Mix the lap count in, so a short input still reaches every value
	// and a rejection loop always ends.
	return (int(f.data[*f.n%len(f.data)]) + *f.n/len(f.data)) % n
}

func (f fuzzRand) Float64() float64 { return float64(f.Intn(1000)) / 1000 }

// fuzzPopulation decodes a population from fuzz bytes: nObjs
// objectives per member, each byte one objective drawn from a small
// palette (so ties, duplicates and infinities are common), a member
// now and then failed. withNaN adds NaN to the palette.
func fuzzPopulation(data []byte, nObjs int, withNaN bool) []individual {
	palette := []float64{0, 1, 2, 3, 4, 5, 6, 7, 0.5, 2.5, -1, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	if withNaN {
		palette = append(palette, math.NaN())
	}
	var pop []individual
	for len(data) >= nObjs && len(pop) < 96 {
		ind := individual{cfg: skeleton.Config{int64(len(pop))}}
		if data[0] != 0xff {
			for _, b := range data[:nObjs] {
				ind.objs = append(ind.objs, palette[int(b)%len(palette)])
			}
		}
		pop = append(pop, ind)
		data = data[nObjs:]
	}
	return pop
}

func addPopulationSeeds(f *testing.F) {
	f.Add([]byte{}, uint8(2), false)
	f.Add([]byte{1, 2, 2, 1, 1, 2, 3, 3, 0xff, 0, 0, 0}, uint8(2), false)
	f.Add([]byte{11, 12, 12, 11, 13, 13, 0, 0, 11, 11}, uint8(2), false)
	f.Add([]byte{14, 1, 2, 2, 3, 14, 1, 1, 14, 14}, uint8(2), true)
	f.Add([]byte{1, 2, 3, 3, 2, 1, 2, 2, 2, 1, 2, 3}, uint8(3), false)
	f.Add([]byte{3, 1, 2, 1}, uint8(1), false)
	long := make([]byte, 160)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	f.Add(long, uint8(2), false)
	f.Add(long, uint8(3), true)
}

func FuzzNonDominatedSortMatchesReference(f *testing.F) {
	addPopulationSeeds(f)
	var warm arena
	f.Fuzz(func(t *testing.T, data []byte, nObjs uint8, withNaN bool) {
		pop := fuzzPopulation(data, int(nObjs%3)+1, withNaN)
		want := refNonDominatedSort(pop)
		for _, a := range []*arena{new(arena), &warm} {
			if got := a.nonDominatedSort(pop); !sameRanks(got, want) {
				t.Fatalf("nonDominatedSort = %v, reference %v", got, want)
			}
			gotND, gotD := a.splitPop(pop)
			wantND, wantD := refSplitPop(pop)
			if !slices.Equal(configIDs(gotND), configIDs(wantND)) || !slices.Equal(configIDs(gotD), configIDs(wantD)) {
				t.Fatalf("splitPop = %v | %v, reference %v | %v", configIDs(gotND), configIDs(gotD), configIDs(wantND), configIDs(wantD))
			}
		}
	})
}

func FuzzTruncateMatchesReference(f *testing.F) {
	addPopulationSeeds(f)
	var warm arena
	f.Fuzz(func(t *testing.T, data []byte, nObjs uint8, withNaN bool) {
		pop := fuzzPopulation(data, int(nObjs%3)+1, withNaN)
		for _, size := range []int{0, 1, len(pop) / 3, len(pop) / 2, len(pop) - 1, len(pop), len(pop) + 1} {
			if size < 0 {
				continue
			}
			want := members(refTruncate(pop, size))
			for _, a := range []*arena{new(arena), &warm} {
				if got := members(a.truncate(pop, size, nil)); !slices.Equal(got, want) {
					t.Fatalf("truncate(%d) kept %v, reference %v", size, got, want)
				}
			}
		}
	})
}

func FuzzOrderBestToWorstMatchesReference(f *testing.F) {
	addPopulationSeeds(f)
	var warm arena
	f.Fuzz(func(t *testing.T, data []byte, nObjs uint8, withNaN bool) {
		pop := fuzzPopulation(data, int(nObjs%3)+1, withNaN)
		want := refOrderBestToWorst(pop)
		for _, a := range []*arena{new(arena), &warm} {
			if got := a.orderBestToWorst(pop); !slices.Equal(got, want) {
				t.Fatalf("orderBestToWorst = %v, reference %v", got, want)
			}
		}
	})
}

func FuzzPickDistinctMatchesReference(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 0}, uint8(5), uint8(0), uint8(3))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, uint8(2), uint8(0), uint8(3))
	f.Add([]byte{0}, uint8(1), uint8(0), uint8(3))
	f.Add([]byte{3, 3, 3, 2, 2, 1, 0}, uint8(4), uint8(3), uint8(3))
	f.Add([]byte{}, uint8(30), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n8, self8, k8 uint8) {
		n := int(n8%64) + 1
		self := int(self8) % n
		k := int(k8 % 5)
		refDraws, draws := 0, 0
		want := refPickDistinct(fuzzRand{data, &refDraws}, n, self, k)
		got := make([]int, k)
		pickDistinct(fuzzRand{data, &draws}, n, self, got)
		if !slices.Equal(got, want) || draws != refDraws {
			t.Fatalf("pickDistinct(n=%d, self=%d, k=%d) = %v after %d draws, reference %v after %d",
				n, self, k, got, draws, want, refDraws)
		}
	})
}

// TestPickDistinctMatchesReference runs the fuzz property over every
// small (n, self, k) on a few fixed streams, n ≤ k and n = 1 included.
func TestPickDistinctMatchesReference(t *testing.T) {
	streams := [][]byte{nil, {0}, {1, 1, 2, 3, 0}, {5, 4, 3, 2, 1, 0}, []byte("pick distinct")}
	for _, data := range streams {
		for n := 1; n <= 8; n++ {
			for self := 0; self < n; self++ {
				for k := 0; k <= 4; k++ {
					refDraws, draws := 0, 0
					want := refPickDistinct(fuzzRand{data, &refDraws}, n, self, k)
					got := make([]int, k)
					pickDistinct(fuzzRand{data, &draws}, n, self, got)
					if !slices.Equal(got, want) || draws != refDraws {
						t.Fatalf("stream %v n=%d self=%d k=%d: %v after %d draws, reference %v after %d",
							data, n, self, k, got, draws, want, refDraws)
					}
				}
			}
		}
	}
}

// TestRankingMatchesReferenceRandomPopulations is the fuzz property on
// a fixed pseudo-random corpus, so the plain test run exercises large
// populations (the MOTPE observation list reaches ~1000) as well.
func TestRankingMatchesReferenceRandomPopulations(t *testing.T) {
	var warm arena
	for _, n := range []int{2, 7, 30, 60, 300} {
		for nObjs := 1; nObjs <= 3; nObjs++ {
			for _, withNaN := range []bool{false, true} {
				data := make([]byte, n*nObjs)
				state := uint64(n*31+nObjs)*0x9e3779b97f4a7c15 + 1
				for i := range data {
					state ^= state << 13
					state ^= state >> 7
					state ^= state << 17
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], state)
					data[i] = b[3]
				}
				pop := fuzzPopulation(data, nObjs, withNaN)
				t.Run(fmt.Sprintf("n%d/m%d/nan=%v", n, nObjs, withNaN), func(t *testing.T) {
					checkAgainstReference(t, &warm, pop)
				})
			}
		}
	}
}

// TestReplaceWorstEmptyPopulation: an island restored from a snapshot
// with an empty population takes no migrants (it used to index
// ord[-1]).
func TestReplaceWorstEmptyPopulation(t *testing.T) {
	var a arena
	migrants := popOf([]float64{1, 1})
	a.replaceWorst(nil, migrants)

	space := schafferSpace()
	opt := Options{Seed: 1}.withDefaults()
	eval := newFuncEvaluator(schaffer)
	for _, name := range []string{"rs-gde3", "nsga2"} {
		strat, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		isl := strat.Restore(space, eval, StrategyConfig{Options: opt}, 1, IslandState{})
		isl.inject(migrants)
		if got := isl.elites(2); len(got) != 0 {
			t.Fatalf("empty island produced elites %v", got)
		}
	}
	// A population of one is still replaced.
	one := popOf([]float64{5, 5})
	a.replaceWorst(one, migrants)
	if !reflect.DeepEqual(one[0].objs, []float64{1, 1}) {
		t.Fatalf("single member not replaced: %v", one[0])
	}
}
