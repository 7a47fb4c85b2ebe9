// Non-dominated ranking, crowding and environmental selection — the
// work a generation does around its evaluations — and the per-island
// arena that work runs in.
package optimizer

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
)

// arena is one island's reusable working memory: everything a
// generation computes and throws away lives here, the offspring and the
// survivors' configurations included, so a warmed-up generation
// allocates only what escapes it (the points the archive keeps,
// snapshots, migrants). Each island owns its arena — islands step
// concurrently and share nothing through it — and the zero value is
// ready to use. Slices returned by arena methods alias the arena and
// are valid until the next call of a method that documents reusing
// them; nothing that outlives a generation may hold one.
type arena struct {
	// nonDominatedSort
	keys     []sweepKey // successful members ordered by (f0, f1, index)
	frontier []sweepKey // per rank: the lowest f1 so far and the f0 it was first reached at
	newest   []int      // chainRanks: per rank, the member placed last
	prev     []int      // chainRanks: the member placed in the same rank before this one, or -1
	rankOf   []int      // rank of every population index
	count    []int      // outstanding dominators per member, then per-rank fill cursors
	flat     []int      // population indices, rank-major, ascending within a rank
	ranks    [][]int    // the ranks, as sub-slices of flat
	cyclic   bool       // rank 0 is a dominance cycle: every successful member is dominated

	// crowdingDistance, truncate, orderBestToWorst
	dist  []float64 // crowding distance per front member
	vals  []float64 // one objective of every front member
	order []int     // the permutation being sorted (positions within a front); the rankings' work list
	tie   []int     // population index per front member, the last sort key of orderBestToWorst
	best  []int     // orderBestToWorst's result

	// One generation of an evolutionary island.
	cand   []individual      // candidates entering truncation
	spare  []individual      // the population buffer not in use (double buffering)
	crowd  []float64         // NSGA-II: crowding distance per population index
	real   []float64         // mutate's real-valued vector
	nonDom []skeleton.Config // splitPop's results
	dom    []skeleton.Config

	// The offspring of a generation: trials are cut from slab, and both
	// are rewritten by the next generation's offspring. The evaluator
	// and its observers copy what they keep, the archive keeps a copy
	// (offer) and own copies the survivors out, so nothing reads them
	// once the generation is over.
	trials []skeleton.Config
	slab   []int64
	// The survivors' configurations: members[0] holds the population's
	// values, members[1] the previous population's, which nothing reads
	// any more; own fills members[1] and swaps the two.
	members [2][]int64
}

// sweepKey is one successful two-objective member in the sweep order.
type sweepKey struct {
	f0, f1 float64
	idx    int
}

// compare orders sweep keys (never NaN) by (f0, f1, index) — a total
// order, so the sorted sequence does not depend on the sorting
// algorithm.
func (k sweepKey) compare(o sweepKey) int {
	switch {
	case k.f0 < o.f0:
		return -1
	case k.f0 > o.f0:
		return 1
	case k.f1 < o.f1:
		return -1
	case k.f1 > o.f1:
		return 1
	default:
		return cmp.Compare(k.idx, o.idx)
	}
}

// The crowding sorts are not total orders — every front has tied ∞
// distances — and the selection they feed is pinned byte for byte, so
// they must reproduce the permutation the sort.Slice calls they
// replaced produced. They go through sort.Sort on the arena itself,
// viewed through one of these types (a pointer conversion: no closure
// and no boxed slice header is allocated per call): sort.Sort and
// sort.Slice run the same generated pdqsort over the same Less/Swap
// sequence. reference_test.go holds the sort.Slice versions and fuzzes
// one against the other.
type (
	byValue         arena // order by vals, ascending
	byCrowding      arena // order by dist, descending
	byCrowdingIndex arena // order by dist descending, then population index ascending
)

func (s *byValue) Len() int           { return len(s.order) }
func (s *byValue) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *byValue) Less(a, b int) bool { return s.vals[s.order[a]] < s.vals[s.order[b]] }

func (s *byCrowding) Len() int           { return len(s.order) }
func (s *byCrowding) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *byCrowding) Less(a, b int) bool { return s.dist[s.order[a]] > s.dist[s.order[b]] }

func (s *byCrowdingIndex) Len() int      { return len(s.order) }
func (s *byCrowdingIndex) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *byCrowdingIndex) Less(a, b int) bool {
	da, db := s.dist[s.order[a]], s.dist[s.order[b]]
	if da != db {
		return da > db
	}
	return s.tie[s.order[a]] < s.tie[s.order[b]]
}

// sized returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve sizes the buffers a GDE3 or NSGA-II generation uses, once,
// for an island of popSize members of dim values, so that no
// generation grows them: ranking and truncation see up to 2·popSize
// candidates, a population and its offspring. The buffers of one
// element type are cut from one allocation, each cut capped at its
// capacity, so that a buffer outgrowing it (MOTPE ranks all its
// observations) reallocates alone. The contents stay unspecified, as
// sized leaves them: every user writes a buffer before reading it.
func (a *arena) reserve(popSize, dim int) {
	n := 2 * popSize
	ints := make([]int, 4*n)
	a.rankOf, a.count, a.flat, a.order = part(ints, 0, n), part(ints, 1, n), part(ints, 2, n), part(ints, 3, n)
	floats := make([]float64, 2*n+popSize+dim)
	a.dist, a.vals = part(floats, 0, n), part(floats, 1, n)
	rest := floats[2*n:]
	a.crowd, a.real = rest[:0:popSize], rest[popSize:popSize]
	keys := make([]sweepKey, 2*n)
	a.keys, a.frontier = part(keys, 0, n), part(keys, 1, n)
	a.ranks = make([][]int, 0, n+1) // a failed member's rank after the successful ones'
	inds := make([]individual, n+popSize)
	a.cand, a.spare = inds[:0:n], inds[n:n]
	cfgs := make([]skeleton.Config, 3*popSize)
	a.nonDom, a.dom, a.trials = part(cfgs, 0, popSize), part(cfgs, 1, popSize), part(cfgs, 2, popSize)
	vals := make([]int64, 3*popSize*dim)
	a.slab, a.members[0], a.members[1] = part(vals, 0, popSize*dim), part(vals, 1, popSize*dim), part(vals, 2, popSize*dim)
}

// part returns the i-th of the n-element cuts of s, empty and capped.
func part[T any](s []T, i, n int) []T { return s[i*n : i*n : (i+1)*n] }

// identity resets the arena's sort permutation to 0..n-1.
func (a *arena) identity(n int) {
	a.order = sized(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
}

// nonDominatedSort partitions population indices into fronts: rank 0 is
// non-dominated, rank 1 is non-dominated once rank 0 is removed, and so
// on; failed individuals (nil objectives) form the final rank. Which
// rank a member belongs to is fixed by the dominance relation alone —
// one more than the highest rank among its dominators — and every rank
// lists its members in ascending population index, so the result does
// not depend on how it is computed.
//
// When every objective vector has the same length and no NaN, dominance
// is a strict partial order and the members are ranked in one ordered
// pass: sorted lexicographically by objectives (then index), every
// dominator of a member precedes it, and because dominance is
// transitive "some member already placed in rank r dominates it" is
// monotone in r, so a binary search over the ranks finds the first one
// that does not — the member's rank. Equal vectors share a rank and a
// tie in one objective is dominance, as pareto.Dominates has it.
//
//   - Two objectives (the paper's search): a rank dominates the member
//     exactly when the rank's lowest f1 so far is lower, or equal and
//     first reached at a lower f0 — one comparison per probe,
//     O(N log N) in total (sweepRanks).
//   - Any other count: a probe scans the rank's members, newest first
//     (chainRanks).
//
// Anything else — NaN, mixed lengths — takes Deb's domination-count
// sort: O(M·N²) pareto.Dominates calls once, not once per rank
// (countRanks).
//
// The result and a.rankOf (the rank of every population index) alias
// the arena until the next nonDominatedSort, truncate, orderBestToWorst
// or splitPop.
func (a *arena) nonDominatedSort(pop []individual) [][]int {
	n := len(pop)
	a.rankOf = sized(a.rankOf, n)
	// m is the common objective count of the successful members; it
	// turns negative once they disagree or hold a NaN.
	alive, m := 0, 0
	for i := range pop {
		o := pop[i].objs
		if o == nil {
			continue
		}
		if alive == 0 {
			m = len(o)
		} else if len(o) != m {
			m = -1
		}
		alive++
		for _, v := range o {
			if v != v {
				m = -1
			}
		}
	}
	a.cyclic = false
	var nRanks int
	switch {
	case m == 2:
		nRanks = a.sweepRanks(pop)
	case m >= 0:
		nRanks = a.chainRanks(pop)
	default:
		nRanks = a.countRanks(pop, alive)
	}
	if alive < n {
		for i := range pop {
			if pop[i].objs == nil {
				a.rankOf[i] = nRanks
			}
		}
		nRanks++
	}

	// Bucket the indices by rank in one ascending pass, so every rank
	// comes out in population order.
	a.count = sized(a.count, n)
	fill := a.count[:nRanks]
	clear(fill)
	for _, r := range a.rankOf {
		fill[r]++
	}
	off := 0
	for r, size := range fill {
		fill[r] = off
		off += size
	}
	a.flat = sized(a.flat, n)
	for i, r := range a.rankOf {
		a.flat[fill[r]] = i
		fill[r]++
	}
	a.ranks = a.ranks[:0]
	start := 0
	for _, end := range fill {
		a.ranks = append(a.ranks, a.flat[start:end:end])
		start = end
	}
	return a.ranks
}

// sweepRanks ranks the successful members of pop (two objectives, no
// NaN) and returns the number of ranks.
func (a *arena) sweepRanks(pop []individual) int {
	keys := a.keys[:0]
	for i := range pop {
		if o := pop[i].objs; o != nil {
			keys = append(keys, sweepKey{o[0], o[1], i})
		}
	}
	a.keys = keys
	slices.SortFunc(keys, sweepKey.compare)
	frontier := a.frontier[:0]
	for _, k := range keys {
		// First rank whose members so far do not dominate k.
		lo, hi := 0, len(frontier)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if f := frontier[mid]; f.f1 < k.f1 || (f.f1 == k.f1 && f.f0 < k.f0) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		a.rankOf[k.idx] = lo
		if lo == len(frontier) {
			frontier = append(frontier, k)
		} else if k.f1 < frontier[lo].f1 {
			frontier[lo] = k
		}
	}
	a.frontier = frontier
	return len(frontier)
}

// chainRanks ranks the successful members of pop (one common objective
// count, no NaN) and returns the number of ranks. Every rank is a chain
// through a.prev, entered at its newest member in a.newest.
func (a *arena) chainRanks(pop []individual) int {
	order := sized(a.order, len(pop))[:0]
	for i := range pop {
		if pop[i].objs != nil {
			order = append(order, i)
		}
	}
	a.order = order
	slices.SortFunc(order, func(x, y int) int {
		if c := slices.Compare(pop[x].objs, pop[y].objs); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	a.prev = sized(a.prev, len(pop))
	newest := a.newest[:0]
	for _, q := range order {
		lo, hi := 0, len(newest)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			dominated := false
			for p := newest[mid]; p >= 0 && !dominated; p = a.prev[p] {
				dominated = pareto.Dominates(pop[p].objs, pop[q].objs)
			}
			if dominated {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		a.rankOf[q] = lo
		if lo == len(newest) {
			a.prev[q] = -1
			newest = append(newest, q)
		} else {
			a.prev[q] = newest[lo]
			newest[lo] = q
		}
	}
	a.newest = newest
	return len(newest)
}

// countRanks ranks the successful members of pop by domination counts
// (Deb's fast non-dominated sort, without the dominated-set lists: a
// front's members are tested against the unranked remainder when the
// front is peeled) and returns the number of ranks.
func (a *arena) countRanks(pop []individual, alive int) int {
	if alive == 0 {
		return 0
	}
	n := len(pop)
	a.count = sized(a.count, n)
	count := a.count
	clear(count)
	for i := range pop {
		if pop[i].objs == nil {
			continue
		}
		a.rankOf[i] = -1
		for j := i + 1; j < n; j++ {
			if pop[j].objs == nil {
				continue
			}
			if pareto.Dominates(pop[i].objs, pop[j].objs) {
				count[j]++
			} else if pareto.Dominates(pop[j].objs, pop[i].objs) {
				count[i]++
			}
		}
	}
	// queue[lo:] is the front being peeled; what it releases is appended
	// behind it and becomes the next front.
	queue := sized(a.order, n)[:0]
	for i := range pop {
		if pop[i].objs != nil && count[i] == 0 {
			a.rankOf[i] = 0
			queue = append(queue, i)
		}
	}
	a.cyclic = len(queue) == 0
	rank, lo := 0, 0
	for len(queue) < alive {
		hi := len(queue)
		if lo == hi {
			// Nothing left is undominated: a dominance cycle, which only
			// NaN objectives can build. The remainder is one rank.
			for q := range pop {
				if pop[q].objs != nil && a.rankOf[q] < 0 {
					a.rankOf[q] = rank
					queue = append(queue, q)
				}
			}
			break
		}
		for _, p := range queue[lo:hi] {
			for q := range pop {
				if pop[q].objs == nil || a.rankOf[q] >= 0 || !pareto.Dominates(pop[p].objs, pop[q].objs) {
					continue
				}
				if count[q]--; count[q] == 0 {
					a.rankOf[q] = rank + 1
					queue = append(queue, q)
				}
			}
		}
		lo, rank = hi, rank+1
	}
	a.order = queue
	return rank + 1
}

// crowdingDistance computes the NSGA-II crowding distance for the
// population members indexed by front. The result aliases the arena
// until the next crowdingDistance, truncate or orderBestToWorst.
func (a *arena) crowdingDistance(pop []individual, front []int) []float64 {
	n := len(front)
	a.dist = sized(a.dist, n)
	dist := a.dist
	clear(dist)
	if n == 0 {
		return dist
	}
	m := len(pop[front[0]].objs)
	a.vals = sized(a.vals, n)
	vals := a.vals
	for obj := 0; obj < m; obj++ {
		a.identity(n)
		order := a.order
		for k, i := range front {
			vals[k] = pop[i].objs[obj]
		}
		sort.Sort((*byValue)(a))
		lo, hi := vals[order[0]], vals[order[n-1]]
		dist[order[0]] = math.Inf(1)
		dist[order[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < n-1; k++ {
			dist[order[k]] += (vals[order[k+1]] - vals[order[k-1]]) / (hi - lo)
		}
	}
	return dist
}

// truncate keeps popSize individuals preferring lower non-domination
// rank and, within the splitting rank, higher crowding distance. The
// survivors are written over buf (nil allocates) in rank order, whole
// ranks in population order and the splitting rank by descending
// crowding distance; pop and buf must not overlap.
func (a *arena) truncate(pop []individual, popSize int, buf []individual) []individual {
	out := buf[:0]
	for _, rank := range a.nonDominatedSort(pop) {
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
		a.crowdingDistance(pop, rank)
		a.identity(len(rank))
		sort.Sort((*byCrowding)(a))
		for _, oi := range a.order[:remaining] {
			out = append(out, pop[rank[oi]])
		}
		break
	}
	return out
}

// orderBestToWorst returns population indices ordered by
// non-domination rank (ascending), crowding distance within the rank
// (descending), and original index as the deterministic tie-break. The
// result aliases the arena until the next orderBestToWorst.
func (a *arena) orderBestToWorst(pop []individual) []int {
	out := sized(a.best, len(pop))[:0]
	for _, rank := range a.nonDominatedSort(pop) {
		a.crowdingDistance(pop, rank)
		a.identity(len(rank))
		a.tie = rank
		sort.Sort((*byCrowdingIndex)(a))
		for _, oi := range a.order {
			out = append(out, rank[oi])
		}
	}
	a.best = out
	return out
}

// offspring returns the trial list, sized n, and the slab emptied with
// room for n configurations of dim values: a generation draws its
// offspring into them and hands the slab back (a.slab = slab), so a
// warm island allocates neither. Both are rewritten by the next call.
func (a *arena) offspring(n, dim int) ([]skeleton.Config, []int64) {
	a.trials = sized(a.trials, n)
	if cap(a.slab) < n*dim {
		a.slab = make([]int64, 0, n*dim)
	}
	return a.trials, a.slab[:0]
}

// own copies the configurations of a population that selection has
// just built into the spare member slab, each cut capped at its length,
// points the members at their copies and makes that slab the
// population's. No member then refers to the offspring, to the previous
// population's slab, or to a seed, a migrant or a restored member, so
// the generation's offspring and the other member slab are free for the
// next generation (under the poison build tag they are overwritten
// here, so that a reader that kept them reads values no space holds).
func (a *arena) own(pop []individual) {
	n := 0
	for _, ind := range pop {
		n += len(ind.cfg)
	}
	slab := a.members[1][:0]
	if cap(slab) < n {
		slab = make([]int64, 0, n)
	}
	for i := range pop {
		pop[i].cfg = cut(&slab, pop[i].cfg)
	}
	a.members[0], a.members[1] = slab, a.members[0]
	poison(a.slab)
	poison(a.members[1])
}

// splitPop partitions a population into its non-dominated and its
// dominated configurations (failed evaluations count as dominated),
// each in population order — what roughset.Split computes with an
// all-pairs scan, read off rank 0 of the ranking instead (a rank 0 that
// is a NaN-built dominance cycle holds dominated members only). The
// results alias the arena until the next splitPop.
func (a *arena) splitPop(pop []individual) (nonDom, dom []skeleton.Config) {
	a.nonDominatedSort(pop)
	nonDom, dom = a.nonDom[:0], a.dom[:0]
	for i := range pop {
		if pop[i].objs != nil && a.rankOf[i] == 0 && !a.cyclic {
			nonDom = append(nonDom, pop[i].cfg)
		} else {
			dom = append(dom, pop[i].cfg)
		}
	}
	a.nonDom, a.dom = nonDom, dom
	return nonDom, dom
}
