// MOTPE: a multi-objective Tree-structured Parzen Estimator sampler,
// the registry's cheap Bayesian strategy. Instead of evolving a
// population it keeps every observation, splits them into "good" (the
// best quartile under non-dominated sorting) and "bad", models each
// group with a Parzen window (per-dimension gaussian kernels around
// the observed configurations), and proposes the candidates that
// maximize the density ratio l(x)/g(x) — sample where good
// observations cluster and bad ones do not. One step proposes and
// evaluates PopSize candidates, so its per-generation evaluation cost
// matches the evolutionary strategies and racing compares like with
// like.
package optimizer

import (
	"math"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// motpeCandidates is the number of l(x) draws scored per proposed
// candidate (Optuna's n_ei_candidates, scaled down for cheap steps).
const motpeCandidates = 8

// motpeIsland is one self-contained MOTPE search instance, sharing the
// islandEvolver stepping surface with the evolutionary strategies. Its
// members are every observation, in evaluation order.
type motpeIsland struct {
	population

	// Per-step working memory, reused across steps.
	ok        []individual // the successful observations
	good, bad parzen
	draw      skeleton.Config // one l(x) draw before clipping
}

// newMOTPEIsland seeds and evaluates the initial observations. opt
// must already carry defaults.
func newMOTPEIsland(space skeleton.Space, eval objective.Evaluator, opt Options, seed int64) *motpeIsland {
	m := &motpeIsland{population: population{space: space, eval: eval, opt: opt}}
	m.seed(stats.NewCountedRand(seed))
	return m
}

// motpeFingerprint identifies a MOTPE search configuration.
func motpeFingerprint(space skeleton.Space, opt Options, islands int, iopt IslandOptions) string {
	return fingerprintOf("motpe", spaceKey(space), opt.PopSize, opt.Stagnation,
		opt.MaxIterations, opt.Seed, islands, iopt.MigrationInterval, iopt.Migrants)
}

// splitObservations partitions the successful observations into the
// good set (best quartile, at least 2) and the bad set, using the same
// rank/crowding order the migration machinery uses. The results alias
// the island's working memory until the next call.
func (m *motpeIsland) splitObservations() (good, bad []skeleton.Config) {
	ok := m.ok[:0]
	for _, o := range m.pop {
		if o.objs != nil {
			ok = append(ok, o)
		}
	}
	m.ok = ok
	if len(ok) < 4 {
		return nil, nil
	}
	nGood := (len(ok) + 3) / 4
	if nGood < 2 {
		nGood = 2
	}
	good, bad = m.good.centers[:0], m.bad.centers[:0]
	for i, idx := range m.arena.orderBestToWorst(ok) {
		if i < nGood {
			good = append(good, ok[idx].cfg)
		} else {
			bad = append(bad, ok[idx].cfg)
		}
	}
	m.good.centers, m.bad.centers = good, bad
	return good, bad
}

// parzen is a Parzen window: per-dimension gaussian kernels centered on
// a set of configurations.
type parzen struct {
	centers []skeleton.Config
	bw      []float64 // kernel width per dimension
	logBw   []float64 // math.Log(bw[d]), taken once per fit, not once per kernel term
	logs    []float64 // per-center log-likelihoods of the last logDensity call
}

// fit sets the per-dimension kernel width for the current centers: a
// fraction of the parameter span that narrows as the set grows, never
// below one integer step.
func (p *parzen) fit(space skeleton.Space) {
	p.bw = sized(p.bw, space.Dim())
	p.logBw = sized(p.logBw, space.Dim())
	shrink := 2 * math.Cbrt(float64(len(p.centers)))
	for d, prm := range space.Params {
		w := float64(prm.Max-prm.Min) / shrink
		if w < 1 {
			w = 1
		}
		p.bw[d] = w
		p.logBw[d] = math.Log(w)
	}
}

// logDensity evaluates the log-density of cfg under the mixture, via
// log-sum-exp for numerical stability.
func (p *parzen) logDensity(cfg skeleton.Config) float64 {
	best := math.Inf(-1)
	p.logs = sized(p.logs, len(p.centers))
	logs := p.logs
	for i, c := range p.centers {
		ll := 0.0
		for d := range cfg {
			z := (float64(cfg[d]) - float64(c[d])) / p.bw[d]
			ll += -0.5*z*z - p.logBw[d]
		}
		logs[i] = ll
		if ll > best {
			best = ll
		}
	}
	if math.IsInf(best, -1) {
		return best
	}
	sum := 0.0
	for _, ll := range logs {
		sum += math.Exp(ll - best)
	}
	return best + math.Log(sum/float64(len(p.centers)))
}

// step proposes and evaluates PopSize candidates: each candidate is
// the best of motpeCandidates draws from the good-set Parzen model,
// scored by the density ratio l(x)/g(x). With too few observations to
// split, proposals fall back to uniform random exploration.
func (m *motpeIsland) step() {
	good, bad := m.splitObservations()
	cands := make([]skeleton.Config, m.opt.PopSize)
	if len(good) == 0 || len(bad) == 0 {
		for i := range cands {
			cands[i] = m.space.Random(m.rng.Rand)
		}
	} else {
		m.good.fit(m.space)
		m.bad.fit(m.space)
		for i := range cands {
			var pick skeleton.Config
			bestScore := math.Inf(-1)
			for k := 0; k < motpeCandidates; k++ {
				center := good[m.rng.Intn(len(good))]
				m.draw = sized(m.draw, len(center))
				for d := range m.draw {
					m.draw[d] = center[d] + int64(math.Round(m.rng.NormFloat64()*m.good.bw[d]))
				}
				draw := m.space.Clip(m.draw) // a fresh configuration: the pick escapes
				score := m.good.logDensity(draw) - m.bad.logDensity(draw)
				if score > bestScore {
					bestScore = score
					pick = draw
				}
			}
			cands[i] = pick
		}
	}
	objs := m.eval.Evaluate(cands)
	improved := false
	for i := range cands {
		improved = m.add(cands[i], objs[i]) || improved
	}
	m.settle(improved)
}

// inject records migrants as observations, steering the good set. They
// are the island's from here on: elites hands out clones.
func (m *motpeIsland) inject(migrants []individual) {
	for _, mig := range migrants {
		m.add(mig.cfg, mig.objs)
	}
}
