package tunedb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"autotune/internal/skeleton"
	"autotune/internal/testenv"
)

// walCounts sums the WAL frames and the records inside them over every
// shard of the open database, read offline the way fsck reads them.
func walCounts(t *testing.T, dir string) (frames, records int) {
	t.Helper()
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck:\n%s", rep)
	}
	for _, s := range rep.Shards {
		frames += s.WALFrames
		records += s.WALRecords
	}
	return frames, records
}

// generation builds n distinct configurations and results; gen varies
// them so successive generations share nothing.
func generation(gen, n int) ([]skeleton.Config, [][]float64) {
	cfgs := make([]skeleton.Config, n)
	objs := make([][]float64, n)
	for i := range cfgs {
		cfgs[i] = skeleton.Config{int64(gen), int64(8 * (i + 1)), int64(1 + i%8)}
		objs[i] = []float64{0.001 * float64(gen*n+i+1), float64(i) + 0.5}
	}
	return cfgs, objs
}

// keysOf renders the Config.Key of every configuration, as the
// evaluation cache hands them to PutEvals.
func keysOf(cfgs []skeleton.Config) []string {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		keys[i] = cfg.Key()
	}
	return keys
}

// TestPutEvalsOneFramePerBatch: a batch goes to the store as one WAL
// frame — with the registry record the first time the key is written,
// without it afterwards, also after a reopen has forgotten the memo —
// records already stored with the same result are skipped, and every
// record reads back.
func TestPutEvalsOneFramePerBatch(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	db := mustOpen(t, dir)
	cfgs, objs := generation(1, 30)
	objs[7] = nil // a known failure rides along
	if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
		t.Fatal(err)
	}
	if frames, records := walCounts(t, dir); frames != 1 || records != 31 {
		t.Fatalf("first batch: %d frames holding %d records, want 1 holding 30 evaluations + the registry record", frames, records)
	}
	if keys := storedKeys(t, db); len(keys) != 1 || keys[0] != key {
		t.Fatalf("key not registered: %v", keys)
	}
	for i, cfg := range cfgs {
		got, ok := db.GetEval(key, cfg)
		if !ok || !equalObjs(got, objs[i]) {
			t.Fatalf("record %d reads back %v %v, want %v", i, got, ok, objs[i])
		}
	}

	// Second generation: the registry record is not written again.
	cfgs2, objs2 := generation(2, 30)
	if err := db.PutEvals(key, cfgs2, keysOf(cfgs2), objs2); err != nil {
		t.Fatal(err)
	}
	if frames, records := walCounts(t, dir); frames != 2 || records != 61 {
		t.Fatalf("second batch: %d frames holding %d records, want 2 holding 61", frames, records)
	}

	// A batch of known results writes nothing; a mixed one writes only
	// what is new or changed.
	if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
		t.Fatal(err)
	}
	if frames, _ := walCounts(t, dir); frames != 2 {
		t.Fatalf("re-storing a stored batch appended a frame (%d)", frames)
	}
	cfgs3, objs3 := generation(3, 2)
	mixed := append(append([]skeleton.Config{}, cfgs[:5]...), cfgs3...)
	mixedObjs := append(append([][]float64{}, objs[:5]...), objs3...)
	mixedObjs[0] = []float64{9, 9} // changed result: stored
	if err := db.PutEvals(key, mixed, keysOf(mixed), mixedObjs); err != nil {
		t.Fatal(err)
	}
	if frames, records := walCounts(t, dir); frames != 3 || records != 64 {
		t.Fatalf("mixed batch: %d frames holding %d records, want 3 holding 64", frames, records)
	}
	if got, _ := db.GetEval(key, cfgs[0]); !equalObjs(got, []float64{9, 9}) {
		t.Fatalf("changed result not stored: %v", got)
	}
	if n := evalCount(t, db, key); n != 62 {
		t.Fatalf("EvalCount = %d, want 62", n)
	}

	// Malformed batches are refused whole.
	bad, badObjs := generation(4, 3)
	badObjs[2] = []float64{math.NaN(), 1}
	if err := db.PutEvals(key, bad, keysOf(bad), badObjs); err == nil {
		t.Fatal("NaN objective accepted")
	}
	if err := db.PutEvals(key, bad, keysOf(bad), badObjs[:2]); err == nil {
		t.Fatal("batch of 3 configurations and 2 results accepted")
	}
	if _, ok := db.GetEval(key, bad[0]); ok {
		t.Fatal("refused batch stored its first record")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopened: the memo is gone, the registry record is found in the
	// store and still not rewritten.
	db = mustOpen(t, dir)
	defer db.Close()
	cfgs5, objs5 := generation(5, 4)
	if err := db.PutEvals(key, cfgs5, keysOf(cfgs5), objs5); err != nil {
		t.Fatal(err)
	}
	if frames, records := walCounts(t, dir); frames != 1 || records != 4 {
		t.Fatalf("after reopen: %d frames holding %d records, want 1 holding 4", frames, records)
	}
	if keys := storedKeys(t, db); len(keys) != 1 {
		t.Fatalf("keys after reopen: %v", keys)
	}
}

// referenceEvalValue is the encoder appendEvalValue replaced: the
// reflection walk of encoding/json over the store-resident struct.
func referenceEvalValue(cfg skeleton.Config, objs []float64) ([]byte, error) {
	return json.Marshal(evalValue{Config: cfg, Objectives: objs})
}

// FuzzEvalValueMatchesReference: for every configuration and objective
// vector the strconv encoder produces the bytes json.Marshal produces —
// nil against empty slices, signed zeros, the exponent form either side
// of 1e-6 and 1e21 — and refuses exactly what json.Marshal refuses.
func FuzzEvalValueMatchesReference(f *testing.F) {
	f.Add(int64(64), int64(8), 0.5, 8.0, uint8(0))
	f.Add(int64(-1), int64(math.MaxInt64), math.Copysign(0, -1), 0.0, uint8(0))
	f.Add(int64(0), int64(math.MinInt64), 1e-6, 9.999999999999999e-7, uint8(0))
	f.Add(int64(1), int64(2), 1e21, 9.999999999999999e20, uint8(0))
	f.Add(int64(1), int64(2), 1e-7, -1.5e-9, uint8(0))
	f.Add(int64(1), int64(2), 1.7976931348623157e308, 5e-324, uint8(0))
	f.Add(int64(1), int64(2), 1e100, -1e-100, uint8(0))
	f.Add(int64(1), int64(2), 0.1, 123456789.125, uint8(1))
	f.Add(int64(1), int64(2), 0.1, 0.2, uint8(2))
	f.Add(int64(1), int64(2), 0.1, 0.2, uint8(3))
	f.Add(int64(1), int64(2), math.NaN(), 1.0, uint8(0))
	f.Add(int64(1), int64(2), 1.0, math.Inf(1), uint8(0))
	f.Add(int64(1), int64(2), math.Inf(-1), 1.0, uint8(0))
	f.Fuzz(func(t *testing.T, a, b int64, x, y float64, shape uint8) {
		cfg, objs := skeleton.Config{a, b}, []float64{x, y}
		switch shape % 4 {
		case 1:
			cfg, objs = nil, nil // a failure recorded under no configuration
		case 2:
			cfg, objs = skeleton.Config{}, []float64{}
		case 3:
			cfg, objs = skeleton.Config{a}, []float64{x, y, x}
		}
		want, wantErr := referenceEvalValue(cfg, objs)
		got, err := appendEvalValue(nil, cfg, objs)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendEvalValue(%v, %v) error = %v, json.Marshal error = %v", cfg, objs, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("appendEvalValue(%v, %v)\n got %s\nwant %s", cfg, objs, got, want)
		}
	})
}

// TestPutEvalsAllocationBudget bounds what journaling one generation
// allocates: what the store keeps of the batch — the store keys' one
// string and the memtable's copy of the values — at 30 records and at
// 120, two allocations as measured. The key's names come from the
// database's table, and the key and value lists and the value buffer
// from a scratch PutEvals reuses; the WAL frame is built in a buffer the
// shard reuses. The configuration keys come from the evaluation cache,
// so nothing is rendered; what it must never do again is allocate per
// record for a key, the registry lookup, the JSON walk or the frame, or
// per batch for what the store copies. It allocated seven a batch when
// it rendered the key and built its lists anew each time.
func TestPutEvalsAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops what it is given")
	}
	for _, n := range []int{30, 120} {
		db := mustOpen(t, t.TempDir())
		key := testKey()
		gen := 0
		perBatch := testing.AllocsPerRun(20, func() {
			gen++
			cfgs, objs := generation(gen, n)
			if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
				t.Fatal(err)
			}
		})
		build := testing.AllocsPerRun(20, func() {
			cfgs, _ := generation(1, n)
			keysOf(cfgs)
		})
		if got, budget := perBatch-build, 2.0; got > budget {
			t.Errorf("PutEvals of %d records allocates %.0f times, budget %.0f", n, got, budget)
		}
		t.Logf("PutEvals of %d records: %.0f allocations", n, perBatch-build)
		db.Close()
	}
}

// TestPutEvalAllocationBudget bounds a single-record PutEval, the form
// the benchmark and Merge write with, as measured: on a key that is not
// resident five allocations — the caller's configuration and
// objectives, the configuration key PutEval renders, and what the store
// keeps (the store key and the memtable's copy of the value) — and on a
// resident key two more, the configuration and objectives the history
// keeps copied into slabs of their own; the growth of the history's
// slices and tail index is amortized away. The one-record lists PutEval
// hands PutEvals stay on its stack.
func TestPutEvalAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops what it is given")
	}
	for _, c := range []struct {
		name     string
		resident bool
		budget   float64
	}{
		{"not resident", false, 5},
		{"resident", true, 7},
	} {
		db := mustOpen(t, t.TempDir())
		key := testKey()
		cfgs, objs := generation(0, 30)
		if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
			t.Fatal(err)
		}
		if c.resident {
			mustWarm(t, db, key)
		}
		gen := 0
		perPut := testing.AllocsPerRun(200, func() {
			gen++
			cfg := skeleton.Config{int64(gen), 8, 1}
			if err := db.PutEval(key, cfg, []float64{float64(gen), 0.5}); err != nil {
				t.Fatal(err)
			}
		})
		if records, _, _ := db.Residency(); (records > 0) != c.resident {
			t.Fatalf("%s: %d records resident: the budget was measured on the wrong path", c.name, records)
		}
		if perPut > c.budget {
			t.Errorf("PutEval on a key %s allocates %.2f times, budget %.0f", c.name, perPut, c.budget)
		}
		t.Logf("PutEval on a key %s: %.2f allocations", c.name, perPut)
		db.Close()
	}
}

// flushedDB opens a database whose testKey shard has flushed once, so
// the key's registry record lives in a segment, not the memtable: the
// state in which a per-record registry lookup costs a segment read.
func flushedDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	cfgs, objs := generation(0, 30)
	if err := db.PutEvals(testKey(), cfgs, keysOf(cfgs), objs); err != nil {
		b.Fatal(err)
	}
	if err := db.st.Flush(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPutEvals journals one generation (30 fresh records) per
// iteration on a shard that has already flushed.
func BenchmarkPutEvals(b *testing.B) {
	db := flushedDB(b)
	key := testKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfgs, objs := generation(i+1, 30)
		keys := keysOf(cfgs)
		b.StartTimer()
		if err := db.PutEvals(key, cfgs, keys, objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutEvalsOneByOne is the same generation journaled as thirty
// PutEval calls — thirty frames, thirty writes.
func BenchmarkPutEvalsOneByOne(b *testing.B) {
	db := flushedDB(b)
	key := testKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfgs, objs := generation(i+1, 30)
		b.StartTimer()
		for n, cfg := range cfgs {
			if err := db.PutEval(key, cfg, objs[n]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
