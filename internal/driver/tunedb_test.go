package driver

import (
	"reflect"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/optimizer"
	"autotune/internal/tunedb"
)

func evalCount(t *testing.T, db *tunedb.DB, key tunedb.Key) int {
	t.Helper()
	n, err := db.EvalCount(key)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTuneKernelJournalsToDB: a cold run against a database journals
// every fresh evaluation and the final front under the search's key —
// a generation per WAL frame, not an evaluation per frame.
func TestTuneKernelJournalsToDB(t *testing.T) {
	dir := t.TempDir()
	db, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts()
	opt.DB = db
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	keys := storedKeys(t, db)
	if len(keys) != 1 {
		t.Fatalf("database keys = %v", keys)
	}
	key := keys[0]
	// Every counted evaluation is journaled (failures add more).
	if n := evalCount(t, db, key); n < out.Result.Evaluations {
		t.Fatalf("journaled %d evals for %d counted", n, out.Result.Evaluations)
	}
	rec, ok := db.Front(key)
	if !ok {
		t.Fatal("front not stored")
	}
	if len(rec.Points) != len(out.Result.Front) {
		t.Fatalf("stored %d front points, search produced %d", len(rec.Points), len(out.Result.Front))
	}
	if rec.Evaluations != out.Result.Evaluations {
		t.Fatalf("stored E = %d, search E = %d", rec.Evaluations, out.Result.Evaluations)
	}
	// The write-ahead log, read offline: at most one frame for the
	// initial population, one per generation and one for the front,
	// holding every evaluation, the front and the key's registry record.
	rep, err := tunedb.Fsck(dir)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck: %v\n%s", err, rep)
	}
	frames, records := 0, 0
	for _, s := range rep.Shards {
		frames += s.WALFrames
		records += s.WALRecords
	}
	if frames > out.Result.Iterations+2 {
		t.Fatalf("%d WAL frames for %d generations: evaluations are not journaled by the batch", frames, out.Result.Iterations)
	}
	if want := evalCount(t, db, key) + 2; records != want {
		t.Fatalf("WAL frames hold %d records, want %d", records, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal survives the process: a fresh open sees everything.
	db2, err := tunedb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, ok := db2.Front(key); !ok {
		t.Fatal("front lost across reopen")
	}
}

// TestTuneKernelWarmStart is the warm-start acceptance check at the
// driver level: rerunning the identical search against the populated
// database pays nothing for cached configurations, so the warm run
// performs strictly fewer new evaluations than the cold run.
func TestTuneKernelWarmStart(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	opt := fastOpts()
	opt.DB = db
	cold, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Result.Evaluations == 0 {
		t.Fatal("cold run evaluated nothing")
	}

	warm := fastOpts()
	warm.DB = db
	warm.WarmStart = true
	out, err := TuneKernel("mm", warm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Evaluations >= cold.Result.Evaluations {
		t.Fatalf("warm run E = %d, cold run E = %d: warm start reused nothing",
			out.Result.Evaluations, cold.Result.Evaluations)
	}
	if len(out.Result.Front) == 0 {
		t.Fatal("warm run produced no front")
	}
}

// TestWarmStartKeysTheNoise: simulated noise is deterministic, so
// evaluations journaled under one amplitude are wrong values under
// another. A warm run at 0.05 over a database that holds a run at 0.01
// must be the cold run at 0.05: the same E and the same front.
func TestWarmStartKeysTheNoise(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tune := func(amp float64, db *tunedb.DB) *Output {
		t.Helper()
		out, err := TuneKernel("mm", Options{
			Machine:   machine.Westmere(),
			Optimizer: optimizer.Options{Seed: 1},
			NoiseAmp:  amp,
			DB:        db,
			WarmStart: db != nil,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	tune(0.01, db)
	warm, cold := tune(0.05, db), tune(0.05, nil)
	if warm.Result.Evaluations != cold.Result.Evaluations || !reflect.DeepEqual(warm.Result.Front, cold.Result.Front) {
		t.Fatalf("warm start at noise 0.05 over a 0.01 run: E %d and %d points, the cold run E %d and %d points",
			warm.Result.Evaluations, len(warm.Result.Front), cold.Result.Evaluations, len(cold.Result.Front))
	}
}

// TestTuneKernelWarmStartTransfers: with no exact-key front stored, the
// warm start seeds from the nearest-machine-signature transferable
// front — here a higher-clocked Westmere variant with the same core
// count (so the search space, hence the key's space hash, matches).
func TestTuneKernelWarmStartTransfers(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	opt := fastOpts()
	opt.DB = db
	if _, err := TuneKernel("mm", opt); err != nil {
		t.Fatal(err)
	}

	variant := machine.Westmere()
	variant.Name = "Westmere-OC"
	variant.ClockGHz *= 1.25
	variant.MemBandwidthGBs *= 1.1
	warm := Options{
		Machine:   variant,
		Optimizer: optimizer.Options{PopSize: 12, Seed: 1, MaxIterations: 15},
		DB:        db,
		WarmStart: true,
	}
	out, err := TuneKernel("mm", warm)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Result.Front) == 0 {
		t.Fatal("transferred warm run produced no front")
	}
	// Both machines' results are now stored under distinct keys.
	if got := len(storedKeys(t, db)); got != 2 {
		t.Fatalf("database keys = %d, want 2", got)
	}
	// The two keys are mutually transferable (same program, objectives
	// and space), which is what made the seeding possible.
	keys := storedKeys(t, db)
	if !keys[0].Transferable(keys[1]) {
		t.Fatalf("keys not transferable: %v vs %v", keys[0], keys[1])
	}
}

// TestWarmStartWithoutDB: WarmStart without a database is ignored, and
// non-caching search paths (brute force has a caching evaluator too, so
// use a nil DB) stay untouched.
func TestWarmStartWithoutDB(t *testing.T) {
	opt := fastOpts()
	opt.WarmStart = true
	if _, err := TuneKernel("mm", opt); err != nil {
		t.Fatal(err)
	}
}

// TestProgressFiresAfterJournal: OnProgress fires once its batch has
// been journaled, so a client told of n evaluations finds at least n in
// the database. The chain registers the journal before the progress
// feed; this holds it to that order.
func TestProgressFiresAfterJournal(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opt := Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 1}, NoiseAmp: 0.01, DB: db}
	key, err := ProblemKey("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	opt.OnProgress = func(done int) { // one island: calls are sequential
		calls++
		if n, err := db.EvalCount(key); err != nil || n < done {
			t.Errorf("progress reported %d evaluations with %d journaled (%v)", done, n, err)
		}
	}
	if _, err := TuneKernel("mm", opt); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress never fired")
	}
}

// storedKeys is every key the database's registry holds.
func storedKeys(t testing.TB, db *tunedb.DB) []tunedb.Key {
	t.Helper()
	keys, err := db.ScanKeys("")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}
