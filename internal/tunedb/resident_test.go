package tunedb

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"autotune/internal/chaos"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/store"
	"autotune/internal/testenv"
)

// warmReference is Warm as commit 6b95eeb had it: scan the key's
// records out of the store, hand them to the cache as one batch. It
// never looks at anything the open database remembers, so it is what
// every other way of answering "what does this key hold" is held to.
func warmReference(db *DB, key Key, ce *objective.CachingEvaluator) (primed int, err error) {
	var cfgs []skeleton.Config
	var objs [][]float64
	err = db.ScanEvals(key.String(), func(_ string, cfg skeleton.Config, o []float64) bool {
		cfgs, objs = append(cfgs, cfg), append(objs, o)
		return true
	})
	if err != nil {
		return 0, err
	}
	return ce.PrimeBatch(cfgs, keysOf(cfgs), objs), nil
}

// forgetResident makes an open database forget whatever it keeps in
// memory about its keys' evaluations.
func forgetResident(db *DB) { db.res.dropAll() }

// primedEval is one entry a warm start inserted into a cache, as the
// cache's prime observers saw it.
type primedEval struct {
	cfg  skeleton.Config
	objs []float64
}

// warmInto warm-starts a fresh cache with warm and returns what it
// primed, in the order the prime observers were told.
func warmInto(warm func(*objective.CachingEvaluator) (int, error)) (seq []primedEval, primed int, err error) {
	ce := newCache()
	ce.AddPrimeObserver(func(cfg skeleton.Config, objs []float64) {
		seq = append(seq, primedEval{cfg, objs})
	})
	primed, err = warm(ce)
	return seq, primed, err
}

func samePrimed(a, b []primedEval) bool {
	return slices.EqualFunc(a, b, func(x, y primedEval) bool {
		return sameDecoded(x.cfg, x.objs, y.cfg, y.objs)
	})
}

// mustWarm warm-starts a fresh cache from key, holds the result to
// what warmReference reads from the store, and returns what it primed.
func mustWarm(t testing.TB, db *DB, key Key) []primedEval {
	t.Helper()
	seq, primed, err := warmInto(func(ce *objective.CachingEvaluator) (int, error) { return db.Warm(key, ce) })
	if err != nil {
		t.Fatalf("Warm: %v", err)
	}
	want, wantPrimed, err := warmInto(func(ce *objective.CachingEvaluator) (int, error) { return warmReference(db, key, ce) })
	if err != nil {
		t.Fatalf("warmReference: %v", err)
	}
	if primed != wantPrimed || !samePrimed(seq, want) {
		t.Fatalf("Warm primed %d records, a scan of the store primes %d, or other ones:\n%v\n%v", primed, wantPrimed, seq, want)
	}
	return seq
}

// harnessKeys are the keys the op sequences work on: two programs in
// two shards, the first under two spaces and two machines.
func harnessKeys(t testing.TB) []Key {
	t.Helper()
	a := testKey()
	space, machine, other := a, a, a
	space.SpaceHash = "sp0000000000000002"
	machine.MachineSig = "s1.c1.t1.clk1.00.bw1.0"
	shards := uint32(storeOptions().Shards)
	ha, _ := shardHash(evalStoreKey(a.String(), ""))
	for i := 0; ; i++ {
		other.Fingerprint = fmt.Sprintf("pg%016x", i)
		if ho, _ := shardHash(evalStoreKey(other.String(), "")); ho%shards != ha%shards {
			break
		}
	}
	return []Key{a, space, machine, other}
}

// harnessCfg draws a configuration from a pool small enough that
// sequences store the same one again and again, whose keys sort
// differently as strings than as numbers ("10,1" before "2,1", "-1,0"
// before "0,0"); nil and empty are two configurations under one key.
func harnessCfg(b byte) skeleton.Config {
	switch b >> 5 {
	case 6:
		return nil
	case 7:
		return skeleton.Config{}
	}
	first := []int64{-1, 0, 1, 2, 10, 11, 64, 128}
	return skeleton.Config{first[b&7], int64(b >> 3 & 3)}
}

// harnessObjs draws a result for cfg: four distinct vectors, a failure
// recorded as nil and one recorded as empty, and 0 against -0.
func harnessObjs(cfg skeleton.Config, b byte) []float64 {
	var x float64
	if len(cfg) > 0 {
		x = float64(cfg[0])
	}
	switch b % 8 {
	case 4:
		return nil
	case 5:
		return []float64{}
	case 6:
		return []float64{0, 1}
	case 7:
		return []float64{math.Copysign(0, -1), 1}
	}
	return []float64{x + 0.25*float64(b%8), 1e-7 * float64(b%8+1)}
}

// opBytes reads an op sequence; past its end every byte is 0.
type opBytes struct {
	data []byte
	at   int
}

func (o *opBytes) next() byte {
	if o.at >= len(o.data) {
		return 0
	}
	o.at++
	return o.data[o.at-1]
}

// mergeSources builds the two databases the sequences merge from: one
// sharing configurations (some with other results) with what the
// sequences write, one under keys they never write, each with a front.
func mergeSources(t testing.TB, keys []Key) []string {
	t.Helper()
	dirs := []string{t.TempDir(), t.TempDir()}
	for d, dir := range dirs {
		db, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for k, key := range keys {
			if d == 1 {
				key.Objectives = "time+energy"
			}
			for i := 0; i < 12; i++ {
				cfg := harnessCfg(byte(17*i + 5*k + d))
				if err := db.PutEval(key, cfg, harnessObjs(cfg, byte(i+d))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.PutFront(testFront(key)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// twin is one of the databases an op sequence is applied to.
type twin struct {
	name string
	dir  string
	db   *DB
	// beforeRead runs before every op that reads evaluations.
	beforeRead func(*twin)
}

func (tw *twin) reopen(t testing.TB) {
	t.Helper()
	if err := tw.db.Close(); err != nil {
		t.Fatalf("%s: close: %v", tw.name, err)
	}
	db, err := Open(tw.dir)
	if err != nil {
		t.Fatalf("%s: reopen: %v", tw.name, err)
	}
	tw.db = db
}

// runReopenOps applies the op sequence in data to three databases that
// start empty: one that stays open, one closed and reopened before every
// op that reads evaluations, and one that stays open and is told to
// forget before every such op. Whatever an open database remembers of
// its keys between operations, every return value, every warm start's
// primed (cfg, objs) sequence in order and the stored records must be
// the same on all three — and the same as warmReference reads from the
// store at that moment; the two that stayed open did the same physical
// work, so their directories must be equal byte for byte.
//
// The fuzzer leaves the reopened database out: closing sixteen shards
// before every read costs a hundred times the rest.
func runReopenOps(t testing.TB, data []byte, sources []string, keys []Key, reopen bool) {
	t.Helper()
	twins := []*twin{
		{name: "open", beforeRead: func(*twin) {}},
		{name: "forgetful", beforeRead: func(tw *twin) { forgetResident(tw.db) }},
	}
	if reopen {
		twins = append(twins, &twin{name: "reopened", beforeRead: func(tw *twin) { tw.reopen(t) }})
	}
	for _, tw := range twins {
		tw.dir = t.TempDir()
		db, err := Open(tw.dir)
		if err != nil {
			t.Fatal(err)
		}
		tw.db = db
	}
	defer func() {
		for _, tw := range twins {
			tw.db.Close()
		}
	}()
	// each runs one op on every twin and compares what it reports, as
	// text, with what the first twin reported.
	each := func(op string, reads bool, fn func(tw *twin) string) {
		t.Helper()
		var first string
		for i, tw := range twins {
			if reads {
				tw.beforeRead(tw)
			}
			got := fn(tw)
			if i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s: the %s database reports %s, the %s one %s", op, twins[0].name, first, tw.name, got)
			}
		}
	}

	ops := &opBytes{data: data}
	for n := 0; ops.at < len(ops.data) && n < 400; n++ {
		op := ops.next()
		key := keys[int(op>>4)%len(keys)]
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5, 15:
			// A batch of one to six records; the small pool makes
			// exact duplicates, changed results and one configuration
			// twice in a batch common.
			size := int(ops.next()%6) + 1
			cfgs := make([]skeleton.Config, size)
			objs := make([][]float64, size)
			for i := range cfgs {
				cfgs[i] = harnessCfg(ops.next())
				objs[i] = harnessObjs(cfgs[i], ops.next())
			}
			if size > 1 && op%16 == 5 {
				cfgs[size-1] = cfgs[0]
			}
			each(fmt.Sprintf("op %d PutEvals(%v, %v)", n, cfgs, objs), false, func(tw *twin) string {
				return fmt.Sprint(tw.db.PutEvals(key, cfgs, keysOf(cfgs), objs))
			})
		case 6, 7, 8, 9:
			var seqs [][]primedEval
			each(fmt.Sprintf("op %d Warm", n), true, func(tw *twin) string {
				seq := mustWarm(t, tw.db, key)
				if len(seqs) > 0 && !samePrimed(seq, seqs[0]) {
					t.Fatalf("op %d: Warm on the %s database primed\n%v\non the %s one\n%v", n, tw.name, seq, twins[0].name, seqs[0])
				}
				seqs = append(seqs, seq)
				return fmt.Sprint(len(seq), " primed")
			})
		case 10, 11:
			cfg := harnessCfg(ops.next())
			each(fmt.Sprintf("op %d GetEval(%v)", n, cfg), true, func(tw *twin) string {
				objs, ok := tw.db.GetEval(key, cfg)
				// %#v tells nil from empty and -0 from 0.
				return fmt.Sprintf("%#v %v", objs, ok)
			})
		case 12:
			each(fmt.Sprintf("op %d EvalCount", n), true, func(tw *twin) string {
				count, err := tw.db.EvalCount(key)
				return fmt.Sprint(count, err)
			})
		case 13:
			each(fmt.Sprintf("op %d Compact", n), false, func(tw *twin) string {
				return fmt.Sprint(tw.db.Compact())
			})
		case 14:
			src := sources[int(ops.next())%len(sources)]
			each(fmt.Sprintf("op %d Merge", n), true, func(tw *twin) string {
				evals, fronts, err := tw.db.Merge(src)
				return fmt.Sprintf("%d evaluations, %d fronts, error %v", evals, fronts, err)
			})
		}
	}

	var first []store.Record
	for i, tw := range twins {
		if err := tw.db.Close(); err != nil {
			t.Fatalf("%s: close: %v", tw.name, err)
		}
		recs := storedRecords(t, tw.dir)
		if i == 0 {
			first = recs
		} else if !slices.EqualFunc(recs, first, func(a, b store.Record) bool { return a.Key == b.Key && bytes.Equal(a.Val, b.Val) }) {
			t.Fatalf("the %s database holds %d records, the %s one %d, or other ones", twins[0].name, len(first), tw.name, len(recs))
		}
	}
	if diff := diffDirs(t, twins[0].dir, twins[1].dir); diff != "" {
		t.Fatalf("the %s and the %s database did the same writes and differ on disk: %s", twins[0].name, twins[1].name, diff)
	}
}

// storedRecords reads every live record of the closed database in dir
// straight from its store.
func storedRecords(t testing.TB, dir string) []store.Record {
	t.Helper()
	st, err := store.Open(storeDir(dir), storeOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []store.Record
	it := st.Iter("")
	defer it.Close()
	for it.Next() {
		recs = append(recs, store.Record{Key: strings.Clone(it.Key()), Val: bytes.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// diffDirs is diff -r: the first path that exists on one side only or
// holds other bytes, "" when there is none.
func diffDirs(t testing.TB, a, b string) string {
	t.Helper()
	list := func(root string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			if d.IsDir() {
				files[rel+"/"] = nil
				return nil
			}
			files[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	fa, fb := list(a), list(b)
	for path, data := range fa {
		other, ok := fb[path]
		if !ok {
			return path + " is missing from " + b
		}
		if !bytes.Equal(data, other) {
			return path + " differs"
		}
	}
	for path := range fb {
		if _, ok := fa[path]; !ok {
			return path + " is missing from " + a
		}
	}
	return ""
}

// TestReopenBetweenOpsChangesNothing: seeded random op sequences —
// batches with exact duplicates, changed results, nil and empty
// failures, one configuration twice, -0 against 0; warm starts, point
// lookups, counts, compactions, merges — leave a database that stayed
// open, one reopened before every read and one told to forget before
// every read indistinguishable.
func TestReopenBetweenOpsChangesNothing(t *testing.T) {
	keys := harnessKeys(t)
	sources := mergeSources(t, keys)
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 1; seed <= seeds; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		runReopenOps(t, data, sources, keys, true)
	}
}

// FuzzResidentMatchesScan runs the same harness on an op sequence read
// from the fuzzer's bytes.
func FuzzResidentMatchesScan(f *testing.F) {
	keys := harnessKeys(f)
	sources := mergeSources(f, keys)
	for seed := 1; seed <= 3; seed++ {
		data := make([]byte, 120)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		f.Add(data)
	}
	// One key: store, warm, store the same configurations with other
	// results and one twice, warm again, look one up.
	f.Add([]byte{0, 3, 1, 0, 9, 1, 17, 2, 25, 3, 6, 5, 3, 1, 1, 9, 6, 33, 7, 1, 2, 6, 10, 9, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			data = data[:300]
		}
		runReopenOps(t, data, sources, keys, false)
	})
}

// residency is db.Residency as one value to compare.
type residency struct {
	records                int
	fromResident, fromScan uint64
}

func residencyOf(db *DB) residency {
	records, fromResident, fromScan := db.Residency()
	return residency{records, fromResident, fromScan}
}

// TestResidentNotKeptAfterBitFlip: a first scan that meets a damaged
// frame returns the error, primes nothing and leaves nothing resident;
// with the byte restored the next warm start scans again and is
// complete, and the one after it reads nothing.
func TestResidentNotKeptAfterBitFlip(t *testing.T) {
	const n = 1500
	dir := t.TempDir()
	db := warmDB(t, dir, nil, n)
	key := testKey()
	hash, _ := shardHash(evalStoreKey(key.String(), ""))
	segs, err := filepath.Glob(filepath.Join(storeDir(dir), fmt.Sprintf("shard-%02d", hash%uint32(storeOptions().Shards)), "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	flip := func(mask byte) {
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= mask
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	flip(0x10)
	ce := newCache()
	if primed, err := db.Warm(key, ce); err == nil || primed != 0 {
		t.Fatalf("Warm over a flipped bit = %d, %v; want an error and nothing primed", primed, err)
	}
	if _, ok := ce.Lookup(skeleton.Config{0, 0, 64, 8}); ok {
		t.Fatal("a failed warm start left the cache partly primed")
	}
	if got := residencyOf(db); got != (residency{}) {
		t.Fatalf("a failed scan left %+v resident", got)
	}
	flip(0x10)
	if seq := mustWarm(t, db, key); len(seq) != n {
		t.Fatalf("healthy disk: Warm primed %d of %d", len(seq), n)
	}
	if seq := mustWarm(t, db, key); len(seq) != n {
		t.Fatalf("resident: Warm primed %d of %d", len(seq), n)
	}
	if got, want := residencyOf(db), (residency{n, 1, 1}); got != want {
		t.Fatalf("residency %+v, want %+v", got, want)
	}
}

// TestResidentDroppedByRefusedWrite: a batch the store does not
// acknowledge — a failed, a torn, an out-of-space append — ends the
// key's residency; the failed shard's later refusals never enter a
// history warmed since; and what the database serves afterwards, still
// open and reopened, is what a scan of the store holds: none of the
// refused batches.
func TestResidentDroppedByRefusedWrite(t *testing.T) {
	for name, fault := range map[string]chaos.Fault{
		"failed": {Op: chaos.OpWrite, Path: "wal.log"},
		"torn":   {Op: chaos.OpWrite, Path: "wal.log", TornBytes: 21},
		"enospc": {Op: chaos.OpWrite, Path: "wal.log", TornBytes: 3, Err: chaos.ENOSPC},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inj := chaos.NewInjector(nil)
			db, err := OpenFS(dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			key := testKey()
			cfgs, objs := generation(1, 40)
			if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
				t.Fatal(err)
			}
			before := mustWarm(t, db, key)
			if got := residencyOf(db).records; got != 40 {
				t.Fatalf("%d records resident, want 40", got)
			}

			inj.Add(fault)
			lost, lostObjs := generation(2, 10)
			if err := db.PutEvals(key, lost, keysOf(lost), lostObjs); err == nil {
				t.Fatal("PutEvals through a write fault succeeded")
			}
			if got := residencyOf(db).records; got != 0 {
				t.Fatalf("%d records resident after a refused batch", got)
			}
			if seq := mustWarm(t, db, key); !samePrimed(seq, before) {
				t.Fatalf("after the refused batch Warm primes\n%v\nbefore it\n%v", seq, before)
			}
			// The shard has failed: it refuses, and the history warmed a
			// moment ago must not take the batch either.
			if err := db.PutEvals(key, lost, keysOf(lost), lostObjs); !IsReadOnly(err) {
				t.Fatalf("PutEvals on a failed shard: %v, want read-only", err)
			}
			if got := residencyOf(db).records; got != 0 {
				t.Fatalf("%d records resident after the failed shard refused a batch", got)
			}
			if _, ok := db.GetEval(key, lost[0]); ok {
				t.Fatal("a refused record reads back")
			}
			if seq := mustWarm(t, db, key); !samePrimed(seq, before) {
				t.Fatalf("after the second refusal Warm primes\n%v\nbefore it\n%v", seq, before)
			}

			// Recover starts from nothing resident and makes the shard
			// writable; the batch written then is in the next warm start.
			inj.Clear()
			if err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			if got := residencyOf(db).records; got != 0 {
				t.Fatalf("%d records resident after Recover", got)
			}
			if err := db.PutEvals(key, lost, keysOf(lost), lostObjs); err != nil {
				t.Fatal(err)
			}
			after := mustWarm(t, db, key)
			if len(after) != 50 {
				t.Fatalf("after Recover Warm primes %d records, want 50", len(after))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			reopened := mustOpen(t, dir)
			defer reopened.Close()
			if seq := mustWarm(t, reopened, key); !samePrimed(seq, after) {
				t.Fatalf("reopened, Warm primes\n%v\nbefore the close\n%v", seq, after)
			}
		})
	}
}

// TestResidentDegradedStoreRefusesWrite: a store degraded as a whole
// refuses writes under every key; one refused under a resident key
// ends its residency, and the key reads as the store holds it.
func TestResidentDegradedStoreRefusesWrite(t *testing.T) {
	inj := chaos.NewInjector(nil)
	db, err := OpenFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := testKey()
	cfgs, objs := generation(1, 40)
	if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
		t.Fatal(err)
	}
	before := mustWarm(t, db, key)
	// A flush that cannot write its segment degrades the whole store.
	inj.Add(chaos.Fault{Op: chaos.OpAny, Path: ".seg"})
	if err := db.st.Flush(); err == nil {
		t.Fatal("Flush through a fault succeeded")
	}
	if !db.Health().ReadOnly {
		t.Fatal("the store did not degrade")
	}
	refused, refusedObjs := generation(2, 10)
	if err := db.PutEvals(key, refused, keysOf(refused), refusedObjs); !IsReadOnly(err) {
		t.Fatalf("PutEvals on a degraded store: %v, want read-only", err)
	}
	if got := residencyOf(db).records; got != 0 {
		t.Fatalf("%d records resident after a refused batch", got)
	}
	if seq := mustWarm(t, db, key); !samePrimed(seq, before) {
		t.Fatalf("after the refused batch Warm primes\n%v\nbefore it\n%v", seq, before)
	}
}

// TestResidentConcurrentWritersAndWarmers: four goroutines store
// batches under one key — each its own configurations and, in every
// batch, some all of them store with the same result — while three
// warm-start from it, one of them making the database forget now and
// then so that scans run beside the writes. Every warm start sees, of
// every writer, a prefix of its batches and each of those whole, in
// store-key order; the last one, after the writers have finished, is
// what a scan reads.
func TestResidentConcurrentWritersAndWarmers(t *testing.T) {
	const writers, batches, size, warmers = 4, 25, 6, 3
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	own := func(w, b, j int) skeleton.Config { return skeleton.Config{int64(w), int64(b), int64(j)} }
	shared := func(b, j int) skeleton.Config { return skeleton.Config{99, int64(b % 5), int64(j)} }
	result := func(cfg skeleton.Config) []float64 {
		return []float64{float64(cfg[0]) + 0.5, float64(cfg[1]*10 + cfg[2])}
	}

	var writing, warming sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for b := 0; b < batches; b++ {
				var cfgs []skeleton.Config
				var objs [][]float64
				for j := 0; j < size; j++ {
					cfgs = append(cfgs, own(w, b, j))
				}
				for j := 0; j < 2; j++ {
					cfgs = append(cfgs, shared(b, j))
				}
				for _, cfg := range cfgs {
					objs = append(objs, result(cfg))
				}
				if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}()
	}
	check := func(who string, seq []primedEval) {
		seen := map[string]bool{}
		for i, p := range seq {
			if i > 0 && seq[i-1].cfg.Key() >= p.cfg.Key() {
				t.Errorf("%s: record %d (%v) is not behind record %d (%v) in store-key order", who, i, p.cfg, i-1, seq[i-1].cfg)
			}
			if !equalObjs(p.objs, result(p.cfg)) {
				t.Errorf("%s: %v primed as %v", who, p.cfg, p.objs)
			}
			seen[p.cfg.Key()] = true
		}
		for w := 0; w < writers; w++ {
			gone := false
			for b := 0; b < batches; b++ {
				count := 0
				for j := 0; j < size; j++ {
					if seen[own(w, b, j).Key()] {
						count++
					}
				}
				switch {
				case count != 0 && count != size:
					t.Errorf("%s: %d of the %d records of writer %d's batch %d", who, count, size, w, b)
				case count != 0 && gone:
					t.Errorf("%s: writer %d's batch %d without the one before it", who, w, b)
				case count != 0 && !(seen[shared(b, 0).Key()] && seen[shared(b, 1).Key()]):
					t.Errorf("%s: writer %d's batch %d without the records it shares", who, w, b)
				}
				gone = count == 0
			}
		}
	}
	for m := 0; m < warmers; m++ {
		warming.Add(1)
		go func() {
			defer warming.Done()
			// Ten warm starts each at the least, so that both paths run
			// however fast the writers are.
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 10 {
						return
					}
				default:
				}
				if m == 0 && i%5 == 4 {
					forgetResident(db)
				}
				seq, _, err := warmInto(func(ce *objective.CachingEvaluator) (int, error) { return db.Warm(key, ce) })
				if err != nil {
					t.Errorf("warmer %d: %v", m, err)
					return
				}
				check(fmt.Sprintf("warmer %d, warm start %d", m, i), seq)
			}
		}()
	}
	writing.Wait()
	close(done)
	warming.Wait()
	last := mustWarm(t, db, key)
	if want := writers*batches*size + 5*2; len(last) != want {
		t.Fatalf("the last warm start primes %d records, want %d", len(last), want)
	}
	check("the last warm start", last)
	if _, fromResident, fromScan := db.Residency(); fromResident == 0 || fromScan == 0 {
		t.Fatalf("%d warm starts from resident histories, %d from scans: the test must see both", fromResident, fromScan)
	}
}

// TestResidentBudget: with room for a hundred records, whole keys are
// evicted least recently warmed first and re-scanned to the same
// result, a key that outgrows the budget by what is written to it goes,
// and a key larger than the budget is scanned every time and never
// kept.
func TestResidentBudget(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	db.res.budget = 100
	keys := harnessKeys(t)
	a, b, big := keys[0], keys[1], keys[3]
	put := func(key Key, gen, n int) {
		t.Helper()
		cfgs, objs := generation(gen, n)
		if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(step string, records int, fromResident, fromScan uint64) {
		t.Helper()
		if got, want := residencyOf(db), (residency{records, fromResident, fromScan}); got != want {
			t.Fatalf("%s: residency %+v, want %+v", step, got, want)
		}
	}
	put(a, 1, 60)
	put(b, 1, 60)
	put(big, 1, 150)
	mustWarm(t, db, a)
	expect("a warmed", 60, 0, 1)
	put(a, 2, 10) // written through
	expect("a written to", 70, 0, 1)
	mustWarm(t, db, b) // 130 records: a, warmed longest ago, goes
	expect("b warmed", 60, 0, 2)
	put(a, 3, 10) // a is not resident: to the store alone
	expect("a written to, evicted", 60, 0, 2)
	if seq := mustWarm(t, db, a); len(seq) != 80 { // scanned again; b goes
		t.Fatalf("a re-scanned to %d records, want 80", len(seq))
	}
	expect("a warmed again", 80, 0, 3)
	mustWarm(t, db, a)
	expect("a warmed from its history", 80, 1, 3)
	mustWarm(t, db, big) // larger than the budget: served, not kept
	expect("big warmed", 80, 1, 4)
	mustWarm(t, db, big)
	expect("big warmed again", 80, 1, 5)
	put(a, 4, 30) // 110 records: a outgrows the budget
	expect("a outgrown", 0, 1, 5)
	if seq := mustWarm(t, db, a); len(seq) != 110 {
		t.Fatalf("a scanned to %d records, want 110", len(seq))
	}
	expect("a warmed, too large", 0, 1, 6)
}

// TestNamesTableHoldsOnlyKeptKeys: the table of rendered key names
// gains a key when it is written under or a warm start keeps it
// resident, never on a read of a key that is not stored — a server
// asked about any number of keys it never tuned does not grow it — and
// not on a warm start too large to keep. A key's entry serves every
// operation on it: the strings PutEvals files under are the table's.
func TestNamesTableHoldsOnlyKeptKeys(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	defer func() { db.Close() }()
	names := func() int {
		db.namesMu.RLock()
		defer db.namesMu.RUnlock()
		return len(db.names)
	}
	expect := func(when string, want int) {
		t.Helper()
		if got := names(); got != want {
			t.Fatalf("%s: the table holds %d keys, want %d", when, got, want)
		}
	}
	key := func(i int) Key {
		k := testKey()
		k.Fingerprint = fmt.Sprintf("pg%016x", i)
		return k
	}
	for i := 0; i < 20; i++ {
		k := key(i)
		if _, ok := db.GetEval(k, skeleton.Config{1, 2}); ok {
			t.Fatal("GetEval found an evaluation in an empty database")
		}
		if _, ok := db.Front(k); ok {
			t.Fatal("Front found a front in an empty database")
		}
		if _, _, ok := db.NearestFront(k, machine.SignatureOf(machine.Westmere())); ok {
			t.Fatal("NearestFront found a front in an empty database")
		}
		if n, err := db.EvalCount(k); err != nil || n != 0 {
			t.Fatalf("EvalCount = %d, %v", n, err)
		}
	}
	expect("after reads of keys never stored", 0)

	cfgs, objs := generation(1, 30)
	if err := db.PutEvals(key(1), cfgs, keysOf(cfgs), objs); err != nil {
		t.Fatal(err)
	}
	expect("after a write", 1)
	if err := db.PutFront(testFront(key(2))); err != nil {
		t.Fatal(err)
	}
	expect("after a front is written", 2)
	mustWarm(t, db, key(3))
	expect("after a warm start kept an empty key resident", 3)
	ks, prefix := db.keyStrings(key(1))
	if ks != key(1).String() || prefix != evalStoreKey(ks, "") {
		t.Fatalf("the table names key 1 %q, %q", ks, prefix)
	}
	db.namesMu.RLock()
	n := db.names[key(1)]
	db.namesMu.RUnlock()
	if n == nil || !n.registered.Load() || unsafe.StringData(n.ks) != unsafe.StringData(ks) {
		t.Fatalf("key 1's entry %+v is not the one its operations read", n)
	}

	// A reopened database starts with an empty table: a warm start too
	// large to keep adds nothing, one that is kept its key.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = mustOpen(t, dir)
	db.res.budget = 10
	expect("after a reopen", 0)
	mustWarm(t, db, key(1))
	if records, _, _ := db.Residency(); records != 0 {
		t.Fatalf("%d records resident over a budget of 10", records)
	}
	expect("after a warm start too large to keep", 0)
	mustWarm(t, db, key(2))
	expect("after a warm start kept a key resident", 1)
}

// TestWarmResidentAllocationBudget bounds what a warm start from a
// resident history allocates: a constant, in allocations and in bytes,
// however long the history — nothing is read, nothing decoded, and the
// cache reads the history's slices in place. A cache that copied the
// history into its map allocated the map, some 100 KiB for 1,500
// records and 400 KiB for 6,000.
func TestWarmResidentAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget, byteBudget = 40, 2 << 10
	for _, n := range []int{1500, 6000} {
		db := warmDB(t, t.TempDir(), nil, n)
		key := testKey()
		mustWarm(t, db, key)
		warm := func() {
			if primed, err := db.Warm(key, newCache()); err != nil || primed != n {
				t.Fatalf("primed %d of %d: %v", primed, n, err)
			}
		}
		perWarm, bytesPerWarm := testing.AllocsPerRun(10, warm), bytesPerRun(10, warm)
		if perWarm > budget {
			t.Errorf("Warm from %d resident records allocates %.0f times, budget %d", n, perWarm, budget)
		}
		if bytesPerWarm > byteBudget {
			t.Errorf("Warm from %d resident records allocates %.0f bytes, budget %d", n, bytesPerWarm, byteBudget)
		}
		if _, fromResident, fromScan := db.Residency(); fromScan != 1 || fromResident < 20 {
			t.Fatalf("%d warm starts from the history, %d from scans: the budget was measured on the wrong path", fromResident, fromScan)
		}
		t.Logf("%d records: %.0f allocations, %.0f bytes per warm start", n, perWarm, bytesPerWarm)
	}
}

// TestWarmedCacheKeepsItsHistory: a cache reads the history a warm
// start handed it in place for as long as it lives, so it must keep
// answering what the history held then after PutEvals has changed
// results of the history's sorted stretch, appended records and had
// them merged by a later warm start, and changed results again behind
// that one.
func TestWarmedCacheKeepsItsHistory(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	cfgs, objs := generation(1, 30)
	if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
		t.Fatal(err)
	}
	ce := newCache()
	if primed, err := db.Warm(key, ce); err != nil || primed != len(cfgs) {
		t.Fatalf("Warm = %d, %v; want %d", primed, err, len(cfgs))
	}
	changed := func(round float64) [][]float64 {
		out := make([][]float64, len(cfgs))
		for i := range out {
			out[i] = []float64{-round, float64(i)}
		}
		return out
	}
	later, laterObjs := generation(2, 30)
	for _, step := range []func() error{
		func() error { return db.PutEvals(key, cfgs, keysOf(cfgs), changed(1)) },
		func() error { return db.PutEvals(key, later, keysOf(later), laterObjs) },
		func() error { mustWarm(t, db, key); return nil },
		func() error { return db.PutEvals(key, cfgs, keysOf(cfgs), changed(2)) },
		func() error { mustWarm(t, db, key); return nil },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range cfgs {
		if got, ok := ce.Lookup(cfg); !ok || !slices.Equal(got, objs[i]) {
			t.Fatalf("the warmed cache answers %v, %v for %v; the history held %v", got, ok, cfg, objs[i])
		}
	}
	for _, cfg := range later {
		if got, ok := ce.Lookup(cfg); ok {
			t.Fatalf("the warmed cache answers %v for %v, stored after its warm start", got, cfg)
		}
	}
	if got := ce.Evaluate(cfgs); !slices.EqualFunc(got, objs, slices.Equal[[]float64]) || ce.Evaluations() != 0 {
		t.Fatalf("Evaluate of the warmed configurations = %v with E = %d, want %v with E = 0", got, ce.Evaluations(), objs)
	}
}

// TestWarmedCachesReadWhileHistoryChanges is
// TestWarmedCacheKeepsItsHistory with the parties concurrent: caches
// warm-started from a resident history read it while PutEvals rewrites
// every result of its sorted stretch and appends records, and while
// other warm starts merge them. Each cache keeps answering the one
// version of the batch it was handed, the results of one rewrite, all
// of them; under the race detector a write into slices a cache was
// handed is a race.
func TestWarmedCachesReadWhileHistoryChanges(t *testing.T) {
	const rounds, readers = 40, 3
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	cfgs, _ := generation(1, 30)
	version := func(round int) [][]float64 {
		objs := make([][]float64, len(cfgs))
		for i := range objs {
			objs[i] = []float64{float64(round), float64(i)}
		}
		return objs
	}
	if err := db.PutEvals(key, cfgs, keysOf(cfgs), version(0)); err != nil {
		t.Fatal(err)
	}
	mustWarm(t, db, key)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for r := 1; r <= rounds; r++ {
			more, moreObjs := generation(r+1, 4)
			if err := db.PutEvals(key, cfgs, keysOf(cfgs), version(r)); err != nil {
				t.Error(err)
				return
			}
			if err := db.PutEvals(key, more, keysOf(more), moreObjs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 5 {
						return
					}
				default:
				}
				ce := newCache()
				if _, err := db.Warm(key, ce); err != nil {
					t.Errorf("reader %d: %v", m, err)
					return
				}
				first, _ := ce.Lookup(cfgs[0])
				for pass := 0; pass < 3; pass++ {
					for j, cfg := range cfgs {
						if got, ok := ce.Lookup(cfg); !ok || len(got) != 2 || got[0] != first[0] || got[1] != float64(j) {
							t.Errorf("reader %d, warm start %d: %v answers %v, %v; the batch it was handed is version %v", m, i, cfg, got, ok, first)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestResidentKeepsTheCacheKeys: a generation journaled from the
// evaluation cache's observer enters the resident history under the
// very key strings the cache handed in — neither copies nor cuts of the
// store-key string, one of which would pin a whole batch's store keys
// for as long as its record stays resident — and a warm start hands the
// cache those strings back.
func TestResidentKeepsTheCacheKeys(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	key := testKey()
	mustWarm(t, db, key) // resident from here on, with nothing in it
	ce := objective.NewCachingEvaluator([]string{"time", "resources"}, 2, func(cfg skeleton.Config) []float64 {
		return []float64{float64(cfg[1]), float64(cfg[2])}
	})
	var handed []string
	ce.AddObserver(func(cfgs []skeleton.Config, keys []string, objs [][]float64) {
		handed = append(handed, keys...)
		if err := db.PutEvals(key, cfgs, keys, objs); err != nil {
			t.Error(err)
		}
	})
	cfgs, _ := generation(1, 30)
	ce.Evaluate(cfgs)
	if len(handed) != len(cfgs) {
		t.Fatalf("the observer was handed %d keys for %d fresh configurations", len(handed), len(cfgs))
	}
	h := db.res.keys[key.String()]
	if h == nil {
		t.Fatal("the key is not resident")
	}
	for _, ck := range handed {
		at, ok := h.find(ck)
		if !ok {
			t.Fatalf("%s is not in the history", ck)
		}
		if unsafe.StringData(h.keys[at]) != unsafe.StringData(ck) {
			t.Fatalf("the history keeps %s in memory of its own, not the cache's string", ck)
		}
	}
	if seq := mustWarm(t, db, key); len(seq) != len(cfgs) {
		t.Fatalf("Warm primed %d records, want %d", len(seq), len(cfgs))
	}
	// What Warm hands PrimeBatch.
	same := map[*byte]bool{}
	for _, ck := range handed {
		same[unsafe.StringData(ck)] = true
	}
	warmCfgs, warmKeys, _, err := db.history(key)
	if err != nil || len(warmKeys) != len(cfgs) {
		t.Fatalf("history: %d keys, %v", len(warmKeys), err)
	}
	for i, ck := range warmKeys {
		if ck != warmCfgs[i].Key() || !same[unsafe.StringData(ck)] {
			t.Fatalf("record %d: key %q for %v, the cache's string: %v", i, ck, warmCfgs[i], same[unsafe.StringData(ck)])
		}
	}
}

// BenchmarkWarmResident is BenchmarkWarmCache for every served job on
// a key but the first: the same 3,498 records, resident.
func BenchmarkWarmResident(b *testing.B) {
	const n = 3498
	db := warmDB(b, b.TempDir(), nil, n)
	key := testKey()
	mustWarm(b, db, key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if primed, err := db.Warm(key, newCache()); err != nil || primed != n {
			b.Fatalf("primed %d of %d: %v", primed, n, err)
		}
	}
}

// BenchmarkPutEvalsResident is BenchmarkPutEvals under a resident key:
// what writing a generation through to the history costs on top. A new
// key every thousand generations keeps the histories within the
// budget however long the benchmark runs.
func BenchmarkPutEvalsResident(b *testing.B) {
	db := flushedDB(b)
	key := testKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%1000 == 0 {
			key.SpaceHash = fmt.Sprintf("sp%016x", i/1000+2)
			mustWarm(b, db, key)
		}
		cfgs, objs := generation(i+1, 30)
		keys := keysOf(cfgs)
		b.StartTimer()
		if err := db.PutEvals(key, cfgs, keys, objs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if records, _, _ := db.Residency(); records == 0 {
		b.Fatal("nothing resident: the benchmark measured the other path")
	}
}
