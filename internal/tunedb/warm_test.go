package tunedb

import (
	"strings"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

func testSpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "t1", Kind: skeleton.TileSize, Min: 1, Max: 128},
		{Name: "t2", Kind: skeleton.TileSize, Min: 1, Max: 128},
		{Name: "threads", Kind: skeleton.ThreadCount, Min: 1, Max: 16},
	}}
}

// TestWarmCacheSkipsStoredEvaluations is the warm-start acceptance
// property: re-requesting configurations the database already holds
// performs zero new evaluations — E stays 0 and the evaluation function
// never runs.
func TestWarmCacheSkipsStoredEvaluations(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	stored := []skeleton.Config{{64, 64, 8}, {32, 32, 16}, {16, 16, 4}}
	for i, cfg := range stored {
		if err := db.PutEval(key, cfg, []float64{float64(i), 8}); err != nil {
			t.Fatal(err)
		}
	}
	// A known failure is stored too, and must also be skipped.
	if err := db.PutEval(key, skeleton.Config{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}

	calls := 0
	ce := objective.NewCachingEvaluator([]string{"time", "resources"}, 1,
		func(cfg skeleton.Config) []float64 {
			calls++
			return []float64{1, 1}
		})
	if primed, err := db.Warm(key, ce); err != nil || primed != 4 {
		t.Fatalf("primed %d entries (%v), want 4", primed, err)
	}
	// Priming again is a no-op: everything is already cached.
	if primed, err := db.Warm(key, ce); err != nil || primed != 0 {
		t.Fatalf("re-priming inserted %d entries (%v)", primed, err)
	}

	out := ce.Evaluate(append(stored, skeleton.Config{1, 1, 1}))
	if calls != 0 {
		t.Fatalf("evaluation function ran %d times for cached configs", calls)
	}
	if ce.Evaluations() != 0 {
		t.Fatalf("E = %d after cache-only requests, want 0", ce.Evaluations())
	}
	if out[0][0] != 0 || out[1][0] != 1 {
		t.Fatalf("primed values wrong: %v", out)
	}
	if out[3] != nil {
		t.Fatalf("stored failure not preserved: %v", out[3])
	}

	// A genuinely new configuration still evaluates and counts.
	ce.EvaluateOne(skeleton.Config{128, 128, 2})
	if calls != 1 || ce.Evaluations() != 1 {
		t.Fatalf("fresh config: calls=%d E=%d", calls, ce.Evaluations())
	}
}

// TestWarmCacheExactKeyOnly: evaluations never transfer across
// machines — a different machine signature primes nothing — nor from a
// key whose canonical string merely starts with this one's.
func TestWarmCacheExactKeyOnly(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	if err := db.PutEval(key, skeleton.Config{64, 64, 8}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	other := key
	other.MachineSig = machine.SignatureOf(machine.Barcelona()).Key()
	ce := objective.NewCachingEvaluator(nil, 1, func(skeleton.Config) []float64 { return nil })
	if primed, err := db.Warm(other, ce); err != nil || primed != 0 {
		t.Fatalf("cross-machine Warm primed %d entries (%v)", primed, err)
	}
	longer := key
	longer.SpaceHash += "0"
	if err := db.PutEval(longer, skeleton.Config{32, 32, 4}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	for _, warm := range []string{"scanned", "resident"} {
		if primed, err := db.Warm(key, newCache()); err != nil || primed != 1 {
			t.Fatalf("%s: Warm primed %d entries (%v), want the key's own one", warm, primed, err)
		}
	}
}

func TestNearestFront(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	westmere := machine.SignatureOf(machine.Westmere())
	barcelona := machine.SignatureOf(machine.Barcelona())

	key := testKey()
	wRec := testFront(key)
	if err := db.PutFront(wRec); err != nil {
		t.Fatal(err)
	}
	bKey := key
	bKey.MachineSig = barcelona.Key()
	bRec := testFront(bKey)
	bRec.Machine = barcelona
	bRec.Points = bRec.Points[:1]
	if err := db.PutFront(bRec); err != nil {
		t.Fatal(err)
	}
	// A transferable-looking front for a different program must never
	// be considered.
	alien := bKey
	alien.Fingerprint = "pgffffffffffffffff"
	alienRec := testFront(alien)
	if err := db.PutFront(alienRec); err != nil {
		t.Fatal(err)
	}

	// Exact hit: distance 0, the Westmere front.
	rec, dist, ok := db.NearestFront(key, westmere)
	if !ok || dist != 0 || rec.Key != key {
		t.Fatalf("exact lookup: ok=%v dist=%v key=%v", ok, dist, rec.Key)
	}

	// Unknown machine: nearest transferable front wins. A signature
	// equal to Barcelona's but under a fresh key string has distance 0
	// to the Barcelona record and > 0 to Westmere's.
	probe := key
	probe.MachineSig = "s1.c1.t1.clk1.00.bw1.0"
	rec, dist, ok = db.NearestFront(probe, barcelona)
	if !ok || rec.Key != bKey {
		t.Fatalf("transfer lookup picked %v (dist %v)", rec.Key, dist)
	}
	if dist != 0 {
		t.Fatalf("distance to identical signature = %v", dist)
	}

	// No transferable front at all: different space hash.
	far := key
	far.SpaceHash = "spdeadbeefdeadbeef"
	if _, _, ok := db.NearestFront(far, westmere); ok {
		t.Fatal("non-transferable front returned")
	}
}

func TestSeedPopulation(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	sig := machine.SignatureOf(machine.Westmere())
	space := testSpace()

	rec := testFront(key)
	rec.Points = []FrontPoint{
		{Config: []int64{64, 64, 8}, Objectives: []float64{0.5, 8}},
		// Out of bounds: must be clamped into the space.
		{Config: []int64{512, 64, 99}, Objectives: []float64{0.4, 9}},
		// Clamps onto the first point: dropped as a duplicate.
		{Config: []int64{64, 64, 8}, Objectives: []float64{0.45, 8}},
		// Wrong dimensionality: dropped.
		{Config: []int64{64, 64}, Objectives: []float64{0.6, 6}},
		{Config: []int64{16, 16, 4}, Objectives: []float64{0.7, 4}},
	}
	if err := db.PutFront(rec); err != nil {
		t.Fatal(err)
	}

	seeds := db.SeedPopulation(key, sig, space, 10)
	if len(seeds) != 3 {
		t.Fatalf("seeds = %v", seeds)
	}
	for _, s := range seeds {
		if !space.In(s) {
			t.Fatalf("seed %v outside space", s)
		}
	}

	// The cap applies.
	if got := db.SeedPopulation(key, sig, space, 1); len(got) != 1 {
		t.Fatalf("capped seeds = %v", got)
	}
	// k <= 0 and absent fronts yield nil.
	if got := db.SeedPopulation(key, sig, space, 0); got != nil {
		t.Fatalf("k=0 seeds = %v", got)
	}
	missing := key
	missing.Fingerprint = "pg0000000000000000"
	if got := db.SeedPopulation(missing, sig, space, 5); got != nil {
		t.Fatalf("missing front seeds = %v", got)
	}
}

// TestSeedsFailOnUndecodableFront: a stored front whose frame is intact
// but whose value does not decode is damage, not absence. Seeds must
// fail naming the key, as it does on a failed read, rather than seed
// from another machine's transferable front in its place — whether the
// damaged front is the exact key's or one of the transferable fronts a
// probe from an unseen machine compares. Front, lenient by signature,
// reads it as no front.
func TestSeedsFailOnUndecodableFront(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	westmere := machine.SignatureOf(machine.Westmere())
	barcelona := machine.SignatureOf(machine.Barcelona())
	key := testKey()
	other := key
	other.MachineSig = barcelona.Key()
	rec := testFront(other)
	rec.Machine = barcelona
	if err := db.PutFront(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.st.Put(frontStoreKey(key.String()), []byte("not a front")); err != nil {
		t.Fatal(err)
	}
	if seeds, err := db.Seeds(other, barcelona, testSpace(), 4); err != nil || len(seeds) != 2 {
		t.Fatalf("Seeds of the readable front = %v, %v; want its two points", seeds, err)
	}
	probe := key
	probe.MachineSig = "s1.c1.t1.clk1.00.bw1.0"
	for _, k := range []Key{key, probe} {
		seeds, err := db.Seeds(k, westmere, testSpace(), 4)
		if err == nil || !strings.Contains(err.Error(), key.String()) {
			t.Errorf("Seeds(%s) = %v, %v; want an error naming %s", k, seeds, err, key)
		}
	}
	if _, ok := db.Front(key); ok {
		t.Error("Front reads the undecodable front as a front")
	}
}
