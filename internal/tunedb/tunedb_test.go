package tunedb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"autotune/internal/machine"
	"autotune/internal/skeleton"
)

func testKey() Key {
	return Key{
		Fingerprint: "pg0123456789abcdef",
		MachineSig:  machine.SignatureOf(machine.Westmere()).Key(),
		Objectives:  "time+resources",
		SpaceHash:   "sp0000000000000001",
	}
}

func testFront(key Key) FrontRecord {
	return FrontRecord{
		Key:            key,
		Machine:        machine.SignatureOf(machine.Westmere()),
		ObjectiveNames: []string{"time", "resources"},
		Points: []FrontPoint{
			{Config: []int64{64, 64, 8}, Objectives: []float64{0.5, 8}},
			{Config: []int64{32, 32, 16}, Objectives: []float64{0.3, 16}},
		},
		Evaluations: 100,
		Iterations:  10,
	}
}

func mustOpen(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// storedKeys is every key the registry holds.
func storedKeys(t testing.TB, db *DB) []Key {
	t.Helper()
	keys, err := db.ScanKeys("")
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func evalCount(t *testing.T, db *DB, key Key) int {
	t.Helper()
	n, err := db.EvalCount(key)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// totalRecords is the physical record count across memtables and
// segments — the store-engine analogue of "journal size" for no-growth
// assertions.
func totalRecords(t *testing.T, db *DB) int {
	t.Helper()
	stats, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return int(stats.SegmentRecords) + stats.MemtableEntries
}

func TestOpenEmptyAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	if got := storedKeys(t, db); len(got) != 0 {
		t.Fatalf("fresh database has keys %v", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, dir)
	defer db2.Close()
	if got := storedKeys(t, db2); len(got) != 0 {
		t.Fatalf("reopened empty database has keys %v", got)
	}
}

// v1Journal is a database of the v1 engine as it sits on disk: one
// evaluation and one front in the JSONL envelope this build no longer
// reads.
const v1Journal = `{"v":1,"t":"eval","crc":2774104031,"d":{"key":{"fingerprint":"pg0123456789abcdef","machine":"m","objectives":"time+resources","space":"sp0000000000000001"},"config":[64,64,8],"objectives":[0.5,8]}}
{"v":1,"t":"front","crc":1193046,"d":{"key":{"fingerprint":"pg0123456789abcdef","machine":"m","objectives":"time+resources","space":"sp0000000000000001"},"points":[{"config":[64,64,8],"objectives":[0.5,8]}]}}
`

// TestOpenRefusesV1Journal: a directory holding a v1 journal and no
// store is refused as that, naming the last commit that migrates it,
// and left as it was — never opened as an empty database beside the
// user's data. Beside a store the leftover journal is ignored.
func TestOpenRefusesV1Journal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jpath, []byte(v1Journal), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir)
	if err == nil {
		db.Close()
		t.Fatal("a v1 journal directory opened")
	}
	if !strings.Contains(err.Error(), "v1 journal database") || !strings.Contains(err.Error(), "ca39811") {
		t.Fatalf("v1 journal directory: %v, want the format and the last commit that migrates it named", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the refused open left %v in the directory", entries)
	}

	// The same journal left behind in a database that has its store.
	dir = t.TempDir()
	mustOpen(t, dir).Close()
	jpath = filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jpath, []byte(v1Journal), 0o644); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, dir)
	defer db.Close()
	if got := storedKeys(t, db); len(got) != 0 {
		t.Fatalf("the leftover journal was read: keys %v", got)
	}
	if kept, err := os.ReadFile(jpath); err != nil || string(kept) != v1Journal {
		t.Fatalf("the leftover journal was touched (%v)", err)
	}
}

func TestEvalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	db := mustOpen(t, dir)
	if err := db.PutEval(key, skeleton.Config{64, 64, 8}, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	// A known failure: nil objectives.
	if err := db.PutEval(key, skeleton.Config{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	if n := evalCount(t, db, key); n != 2 {
		t.Fatalf("EvalCount = %d", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, dir)
	defer db2.Close()
	if n := evalCount(t, db2, key); n != 2 {
		t.Fatalf("EvalCount after reopen = %d", n)
	}
	keys := storedKeys(t, db2)
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestGetEvalDistinguishesFailureFromAbsent(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	if err := db.PutEval(key, skeleton.Config{64, 64, 8}, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEval(key, skeleton.Config{1, 1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	objs, ok := db.GetEval(key, skeleton.Config{64, 64, 8})
	if !ok || len(objs) != 2 || objs[0] != 0.5 {
		t.Fatalf("GetEval = %v %v", objs, ok)
	}
	// Stored known-failure: present, nil objectives.
	objs, ok = db.GetEval(key, skeleton.Config{1, 1, 1})
	if !ok || objs != nil {
		t.Fatalf("known failure GetEval = %v %v", objs, ok)
	}
	if _, ok := db.GetEval(key, skeleton.Config{7, 7, 7}); ok {
		t.Fatal("absent config reported present")
	}
}

func TestPutEvalDeduplicates(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	db := mustOpen(t, dir)
	defer db.Close()
	cfg := skeleton.Config{64, 64, 8}
	if err := db.PutEval(key, cfg, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	before := totalRecords(t, db)
	// Re-storing the identical result must not grow the database.
	if err := db.PutEval(key, cfg, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	if after := totalRecords(t, db); after != before {
		t.Fatalf("duplicate PutEval grew database %d -> %d records", before, after)
	}
	// A changed result is stored and supersedes the old one.
	if err := db.PutEval(key, cfg, []float64{0.4, 8}); err != nil {
		t.Fatal(err)
	}
	if n := evalCount(t, db, key); n != 1 {
		t.Fatalf("EvalCount = %d", n)
	}
	if objs, ok := db.GetEval(key, cfg); !ok || objs[0] != 0.4 {
		t.Fatalf("superseded eval not updated: %v %v", objs, ok)
	}
}

func TestFrontSupersedesAndSorts(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	db := mustOpen(t, dir)
	if err := db.PutFront(testFront(key)); err != nil {
		t.Fatal(err)
	}
	newer := testFront(key)
	newer.Points = append(newer.Points,
		FrontPoint{Config: []int64{16, 16, 32}, Objectives: []float64{0.2, 32}},
		// Ties: equal objectives order by config; a shorter objective
		// vector that prefixes a longer one sorts first.
		FrontPoint{Config: []int64{1, 1, 1}, Objectives: []float64{0.3, 16}},
		FrontPoint{Config: []int64{2, 2, 2}, Objectives: []float64{0.3}})
	newer.Evaluations = 200
	if err := db.PutFront(newer); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, dir)
	defer db2.Close()
	rec, ok := db2.Front(key)
	if !ok {
		t.Fatal("front missing after reopen")
	}
	if rec.Evaluations != 200 || len(rec.Points) != 5 {
		t.Fatalf("latest front not retained: %+v", rec)
	}
	// Points stored in canonical order: lexicographic by objectives.
	for i := 1; i < len(rec.Points); i++ {
		if rec.Points[i-1].Objectives[0] > rec.Points[i].Objectives[0] {
			t.Fatalf("points not canonically ordered: %v", rec.Points)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	db := mustOpen(t, dir)
	cfg := skeleton.Config{64, 64, 8}
	// Many superseding writes leave dead records; flushing between them
	// pushes each generation into its own segment so the duplicates are
	// physical, not memtable overwrites.
	for i := 0; i < 20; i++ {
		if err := db.PutEval(key, cfg, []float64{float64(i), 8}); err != nil {
			t.Fatal(err)
		}
		if err := db.PutFront(testFront(key)); err != nil {
			t.Fatal(err)
		}
		if err := db.st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if before := totalRecords(t, db); before <= 3 {
		t.Fatalf("superseding writes left only %d records; test is vacuous", before)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	stats, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadRecords != 0 {
		t.Fatalf("compact left %d dead records: %+v", stats.DeadRecords, stats)
	}
	// Live set: one eval, one front, one key-registry entry.
	if stats.LiveKeys != 3 {
		t.Fatalf("live keys after compact = %d, want 3", stats.LiveKeys)
	}
	// The database stays usable after compaction.
	if err := db.PutEval(key, skeleton.Config{1, 2, 3}, []float64{9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := mustOpen(t, dir)
	defer db2.Close()
	if n := evalCount(t, db2, key); n != 2 {
		t.Fatalf("EvalCount after compact+reopen = %d", n)
	}
	if rec, ok := db2.Front(key); !ok || len(rec.Points) != 2 {
		t.Fatalf("front lost in compaction: %v %v", rec, ok)
	}
}

func TestMerge(t *testing.T) {
	key := testKey()
	otherKey := testKey()
	otherKey.Fingerprint = "pgfedcba9876543210"

	srcDir := t.TempDir()
	src := mustOpen(t, srcDir)
	if err := src.PutEval(key, skeleton.Config{64, 64, 8}, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	if err := src.PutEval(otherKey, skeleton.Config{32, 32, 4}, []float64{0.7, 4}); err != nil {
		t.Fatal(err)
	}
	if err := src.PutFront(testFront(key)); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	dst := mustOpen(t, t.TempDir())
	defer dst.Close()
	// dst already has one of the evaluations; only the rest transfer.
	if err := dst.PutEval(key, skeleton.Config{64, 64, 8}, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	evals, fronts, err := dst.Merge(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 1 || fronts != 1 {
		t.Fatalf("merge adopted %d evals, %d fronts", evals, fronts)
	}
	if n := evalCount(t, dst, otherKey); n != 1 {
		t.Fatalf("merged eval missing: EvalCount = %d", n)
	}
	if _, ok := dst.Front(key); !ok {
		t.Fatal("merged front missing")
	}
	// A second merge is a no-op.
	evals, fronts, err = dst.Merge(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	if evals != 0 || fronts != 0 {
		t.Fatalf("re-merge adopted %d evals, %d fronts", evals, fronts)
	}
}

// TestJobRecords: PutJob supersedes a job's record; Jobs hands every
// record back in ID order — across a reopen and a compaction, from the
// one shard they all live on — and stops at its callback's error; the
// records are invisible to the other namespaces and Merge leaves them
// behind.
func TestJobRecords(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	key := testKey()
	if err := db.PutEval(key, skeleton.Config{64, 64, 8}, []float64{0.5, 8}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{{"j000002", "queued"}, {"j000000", "queued"}, {"j000001", "queued"}, {"j000001", "done"}} {
		if err := db.PutJob(r[0], []byte(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"j000000 queued", "j000001 done", "j000002 queued"}
	check := func(when string) {
		t.Helper()
		var got []string
		if err := db.Jobs(func(id string, rec []byte) error {
			got = append(got, id+" "+string(rec))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: Jobs reads %q, want %q", when, got, want)
		}
	}
	check("open")
	db.Close()
	db = mustOpen(t, dir)
	check("reopened")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	stop, calls := fmt.Errorf("stop"), 0
	if err := db.Jobs(func(string, []byte) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("Jobs after its callback's error: %v, %d calls", err, calls)
	}
	if _, oneShard := shardHash(nsJob); !oneShard {
		t.Fatal("job records are spread over the shards: Jobs reads every one")
	}
	if keys := storedKeys(t, db); len(keys) != 1 || evalCount(t, db, key) != 1 {
		t.Fatalf("job records show through the other namespaces: keys %v, %d evaluations", keys, evalCount(t, db, key))
	}
	db.Close()
	dst := mustOpen(t, t.TempDir())
	defer dst.Close()
	if _, _, err := dst.Merge(dir); err != nil {
		t.Fatal(err)
	}
	if err := dst.Jobs(func(id string, _ []byte) error { return fmt.Errorf("merged job record %s", id) }); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWriters exercises the sharded engine under -race: many
// goroutines storing evaluations and fronts for different programs at
// once (distinct fingerprints land on distinct shards).
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	const writers = 8
	const perWriter = 25
	keys := make([]Key, writers)
	for w := range keys {
		keys[w] = testKey()
		keys[w].Fingerprint = fmt.Sprintf("pg%016x", w+1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				cfg := skeleton.Config{int64(w), int64(i), 8}
				if err := db.PutEval(keys[w], cfg, []float64{float64(w), float64(i)}); err != nil {
					errs <- err
					return
				}
			}
			if err := db.PutFront(testFront(keys[w])); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if n := evalCount(t, db, keys[w]); n != perWriter {
			t.Fatalf("EvalCount(writer %d) = %d, want %d", w, n, perWriter)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := mustOpen(t, dir)
	defer db2.Close()
	for w := 0; w < writers; w++ {
		if n := evalCount(t, db2, keys[w]); n != perWriter {
			t.Fatalf("EvalCount(writer %d) after reopen = %d, want %d", w, n, perWriter)
		}
	}
	if got := len(storedKeys(t, db2)); got != writers {
		t.Fatalf("Keys = %d, want %d", got, writers)
	}
}

func TestClosedDBRejectsWrites(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEval(testKey(), skeleton.Config{1}, []float64{1}); err == nil {
		t.Error("PutEval on closed database succeeded")
	}
	if err := db.PutFront(testFront(testKey())); err == nil {
		t.Error("PutFront on closed database succeeded")
	}
	if err := db.Compact(); err == nil {
		t.Error("Compact on closed database succeeded")
	}
}

// TestScanKeysOrderProperty: ScanKeys("") must return exactly the
// stored key set sorted by canonical string — the range-scan order
// property surfaced through the tunedb API.
func TestScanKeysOrderProperty(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	var wantStrs []string
	for i := 0; i < 40; i++ {
		k := testKey()
		// Scatter fingerprints so keys cross shards and sort nontrivially.
		k.Fingerprint = fmt.Sprintf("pg%016x", (i*2654435761)%997)
		if err := db.PutEval(k, skeleton.Config{int64(i), 2, 3}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		wantStrs = append(wantStrs, k.String())
	}
	sort.Strings(wantStrs)
	got, err := db.ScanKeys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantStrs) {
		t.Fatalf("ScanKeys returned %d keys, want %d", len(got), len(wantStrs))
	}
	for i, k := range got {
		if k.String() != wantStrs[i] {
			t.Fatalf("ScanKeys[%d] = %q, want %q", i, k.String(), wantStrs[i])
		}
	}
	// Prefix scan: only the matching fingerprint.
	one := got[7]
	sub, err := db.ScanKeys(one.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sub {
		if k.Fingerprint != one.Fingerprint {
			t.Fatalf("prefix scan leaked key %q", k.String())
		}
	}
	if len(sub) == 0 {
		t.Fatal("prefix scan found nothing")
	}
}

func TestStatsReportsShards(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	for i := 0; i < 10; i++ {
		if err := db.PutEval(key, skeleton.Config{int64(i), 2, 3}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 16 {
		t.Fatalf("shard count = %d, want 16", len(stats.Shards))
	}
	if stats.LiveKeys != 11 { // 10 evals + 1 key registry entry
		t.Fatalf("live keys = %d, want 11", stats.LiveKeys)
	}
	// One program: everything lands in a single shard.
	nonEmpty := 0
	for _, ss := range stats.Shards {
		if ss.LiveKeys > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("one program spread across %d shards", nonEmpty)
	}
}
