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
	"testing"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/store"
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
	return ce.PrimeBatch(cfgs, objs), nil
}

// forgetResident makes an open database forget whatever it keeps in
// memory about its keys' evaluations. At commit 6b95eeb it keeps
// nothing.
var forgetResident = func(*DB) {}

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
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
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
		case 0, 1, 2, 3, 4, 5:
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
				return errText(tw.db.PutEvals(key, cfgs, objs))
			})
		case 6, 7, 8, 9:
			var seqs [][]primedEval
			each(fmt.Sprintf("op %d Warm", n), true, func(tw *twin) string {
				seq, primed, err := warmInto(func(ce *objective.CachingEvaluator) (int, error) { return tw.db.Warm(key, ce) })
				want, wantPrimed, wantErr := warmInto(func(ce *objective.CachingEvaluator) (int, error) { return warmReference(tw.db, key, ce) })
				if primed != wantPrimed || errText(err) != errText(wantErr) || !samePrimed(seq, want) {
					t.Fatalf("op %d: Warm on the %s database primed %d (%v)\n%v\na scan of its store primes %d (%v)\n%v", n, tw.name, primed, err, seq, wantPrimed, wantErr, want)
				}
				if len(seqs) > 0 && !samePrimed(seq, seqs[0]) {
					t.Fatalf("op %d: Warm on the %s database primed\n%v\non the %s one\n%v", n, tw.name, seq, twins[0].name, seqs[0])
				}
				seqs = append(seqs, seq)
				return fmt.Sprintf("%d primed, error %q", primed, errText(err))
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
				return fmt.Sprintf("%d, error %q", count, errText(err))
			})
		case 13:
			each(fmt.Sprintf("op %d Compact", n), false, func(tw *twin) string {
				return errText(tw.db.Compact())
			})
		case 14:
			src := sources[int(ops.next())%len(sources)]
			each(fmt.Sprintf("op %d Merge", n), true, func(tw *twin) string {
				evals, fronts, err := tw.db.Merge(src)
				return fmt.Sprintf("%d evaluations, %d fronts, error %q", evals, fronts, errText(err))
			})
		case 15:
			cfg := harnessCfg(ops.next())
			objs := harnessObjs(cfg, ops.next())
			each(fmt.Sprintf("op %d PutEval(%v, %v)", n, cfg, objs), false, func(tw *twin) string {
				return errText(tw.db.PutEval(key, cfg, objs))
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
		recs = append(recs, store.Record{Key: it.Key(), Val: it.Value()})
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
