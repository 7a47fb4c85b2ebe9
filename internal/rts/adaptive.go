package rts

import (
	"math"
	"sort"
	"sync"
	"time"

	"autotune/internal/multiversion"
	"autotune/internal/stats"
)

// Adaptive is a feedback-driven selection policy: it starts from the
// compile-time objective metadata but refines its choice with measured
// execution times of the versions it actually runs — the paper's
// "real-time system monitoring results for their decision-making
// processes" (§IV, Insieme Runtime System). An epsilon-greedy schedule
// balances exploiting the empirically fastest version against
// exploring the others whose static metadata makes them plausible.
//
// Adaptive is stateful: construct one per runtime and share it only
// with that runtime. It is safe for concurrent use.
type Adaptive struct {
	// Epsilon is the exploration probability, as given: 0 never
	// explores.
	Epsilon float64
	// Window is how many recent measurements per version are kept
	// (default 8).
	Window int
	// Seed drives exploration.
	Seed int64

	once sync.Once
	mu   sync.Mutex
	rng  interface{ Float64() float64 }
	rsrc interface{ Intn(n int) int }
	meas map[int][]float64
}

// Name implements Policy.
func (a *Adaptive) Name() string { return "adaptive" }

func (a *Adaptive) init() {
	a.once.Do(func() {
		if a.Window == 0 {
			a.Window = 8
		}
		r := stats.NewRand(a.Seed)
		a.rng = r
		a.rsrc = r
		a.meas = map[int][]float64{}
	})
}

// Rank implements Policy: the versions that fit the core budget by
// ascending score, where measured medians override the static metadata
// once available. With probability Epsilon a uniformly random one of
// them moves to the front (exploration) while the rest keep the
// exploitation order, so fallback after a failed exploration resumes
// from the best-known versions.
func (a *Adaptive) Rank(u *multiversion.Unit, ctx Context) ([]int, error) {
	a.init()
	a.mu.Lock()
	defer a.mu.Unlock()
	feasible, err := feasibleVersions(u, ctx, allVersions(u))
	if err != nil {
		return nil, err
	}
	sort.SliceStable(feasible, func(x, y int) bool {
		return a.score(u, feasible[x]) < a.score(u, feasible[y])
	})
	if a.rng.Float64() < a.Epsilon {
		k := a.rsrc.Intn(len(feasible))
		pick := feasible[k]
		copy(feasible[1:k+1], feasible[:k])
		feasible[0] = pick
	}
	return feasible, nil
}

// score returns the measured median time when available, falling back
// to the static metadata's objective 0, the time objective of every
// unit Tune emits.
func (a *Adaptive) score(u *multiversion.Unit, idx int) float64 {
	if ms := a.meas[idx]; len(ms) > 0 {
		return stats.MustMedian(ms)
	}
	if objs := u.Versions[idx].Meta.Objectives; len(objs) > 0 {
		return objs[0]
	}
	return math.Inf(1)
}

// Observe records a measured execution time for a version, displacing
// the oldest sample beyond the window.
func (a *Adaptive) Observe(version int, seconds float64) {
	a.init()
	a.mu.Lock()
	defer a.mu.Unlock()
	ms := append(a.meas[version], seconds)
	if len(ms) > a.Window {
		ms = ms[len(ms)-a.Window:]
	}
	a.meas[version] = ms
}

// InvokeTimed runs one invocation through the runtime, feeding the
// measured wall time back into the adaptive policy. It is a
// convenience for the common monitor-and-refine loop.
func InvokeTimed(rt *Runtime, a *Adaptive) (int, float64, error) {
	start := time.Now()
	idx, err := rt.Invoke()
	elapsed := time.Since(start).Seconds()
	if err != nil {
		return idx, elapsed, err
	}
	a.Observe(idx, elapsed)
	return idx, elapsed, nil
}
