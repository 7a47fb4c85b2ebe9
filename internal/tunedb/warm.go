package tunedb

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// Warm primes the shared evaluation cache with every stored evaluation
// for the exact key — including known failures — so repeated or
// overlapping searches re-pay nothing for configurations the database
// has already seen: the E metric counts only new evaluations. The
// records are read in one single-shard scan and handed to the cache as
// one batch, in canonical key order, the slices as they were decoded.
// It returns the number of entries primed. A scan that fails — a read
// fault, a damaged frame, an undecodable value — primes nothing and
// returns the error: a search warm-started from part of its history
// would quietly find a different front than from all of it.
// Evaluations never warm across machines; objective values measured (or
// modeled) on one machine are meaningless on another.
func (db *DB) Warm(key Key, ce *objective.CachingEvaluator) (primed int, err error) {
	var cfgs []skeleton.Config
	var objs [][]float64
	err = db.ScanEvals(key.String(), func(_ string, cfg skeleton.Config, o []float64) bool {
		if len(cfgs) == cap(cfgs) {
			// Doubled by hand: append grows a long slice a quarter at a
			// time, which for a history of thousands of records copies
			// five times its final size where doubling copies twice.
			cfgs = slices.Grow(cfgs, max(len(cfgs), 256))
			objs = slices.Grow(objs, max(len(objs), 256))
		}
		cfgs, objs = append(cfgs, cfg), append(objs, o)
		return true
	})
	if err != nil {
		return 0, err
	}
	return ce.PrimeBatch(cfgs, objs), nil
}

// WarmCache is Warm with the error dropped: a failed scan reads as
// nothing stored. Only the repository benchmark, which this package may
// not edit, still calls it; everything else calls Warm.
func (db *DB) WarmCache(key Key, ce *objective.CachingEvaluator) int {
	primed, _ := db.Warm(key, ce)
	return primed
}

// NearestFront finds the stored front best matching key: an exact
// match if present, otherwise the transferable front (same program,
// objectives and space) whose machine signature is nearest to sig —
// the cross-machine transfer path. Candidate fronts come from a
// single-shard range scan: sharding is by program fingerprint, so
// every machine's front for this program lives in one shard. The
// returned distance is 0 for an exact match. A read that fails counts
// as no usable front; Seeds is the form that reports it.
func (db *DB) NearestFront(key Key, sig machine.Signature) (FrontRecord, float64, bool) {
	rec, dist, ok, err := db.nearestFront(key, sig)
	return rec, dist, ok && err == nil
}

func (db *DB) nearestFront(key Key, sig machine.Signature) (FrontRecord, float64, bool, error) {
	if rec, ok, err := db.front(key); ok || err != nil {
		return rec, 0, ok, err
	}
	best := FrontRecord{}
	bestDist := math.Inf(1)
	found := false
	// All transferable fronts share key's program fingerprint — the
	// first component of the canonical string — so a fingerprint-prefix
	// scan covers every candidate.
	it := db.st.Iter(nsFront + key.Fingerprint + "|")
	defer it.Close()
	for it.Next() {
		var rec FrontRecord
		if err := json.Unmarshal(it.Value(), &rec); err != nil {
			continue
		}
		if !key.Transferable(rec.Key) {
			continue
		}
		d := sig.Distance(rec.Machine)
		if d < bestDist || (d == bestDist && rec.Key.String() < best.Key.String()) {
			best, bestDist, found = rec, d, true
		}
	}
	if err := it.Err(); err != nil {
		// The nearest of the fronts that could be read is not the
		// nearest front.
		return FrontRecord{}, 0, false, fmt.Errorf("tunedb: %w", err)
	}
	return best, bestDist, found, nil
}

// Seeds returns up to k stored Pareto-front configurations to inject
// into an initial search population: the exact key's front when
// present, otherwise the nearest-signature transferable front. Every
// configuration is clamped into the current space; wrong-dimension and
// duplicate configurations are dropped. A nil result means no usable
// stored front exists; an error means the database could not be read,
// which is not the same thing.
func (db *DB) Seeds(key Key, sig machine.Signature, space skeleton.Space, k int) ([]skeleton.Config, error) {
	rec, _, ok, err := db.nearestFront(key, sig)
	if err != nil || !ok || k <= 0 {
		return nil, err
	}
	seen := map[string]bool{}
	var out []skeleton.Config
	for _, p := range rec.Points {
		if len(out) == k {
			break
		}
		if len(p.Config) != space.Dim() {
			continue
		}
		cfg := space.Clip(skeleton.Config(p.Config))
		ck := cfg.Key()
		if seen[ck] {
			continue
		}
		seen[ck] = true
		out = append(out, cfg)
	}
	return out, nil
}

// SeedPopulation is Seeds with the error dropped, kept — like WarmCache
// — for the repository benchmark alone.
func (db *DB) SeedPopulation(key Key, sig machine.Signature, space skeleton.Space, k int) []skeleton.Config {
	seeds, _ := db.Seeds(key, sig, space, k)
	return seeds
}
