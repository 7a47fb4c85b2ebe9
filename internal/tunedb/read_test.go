package tunedb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"autotune/internal/chaos"
	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/skeleton"
	"autotune/internal/testenv"
)

// referenceDecodeEvalValue is the decoder decodeEvalValue replaced: the
// reflection walk of encoding/json into the store-resident struct.
func referenceDecodeEvalValue(data []byte) (skeleton.Config, []float64, error) {
	var v evalValue
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, nil, err
	}
	return v.Config, v.Objectives, nil
}

// parseEvalValue is the strict decoder alone, over slabs of its own.
func parseEvalValue(data []byte) (cfg skeleton.Config, objs []float64, ok bool) {
	var s evalSlabs
	return s.parse(data)
}

// sameDecoded compares two decoded values the way a search could tell
// them apart: nil against empty, every bit of every float (so -0 is not
// 0).
func sameDecoded(cfgA skeleton.Config, objsA []float64, cfgB skeleton.Config, objsB []float64) bool {
	if (cfgA == nil) != (cfgB == nil) || len(cfgA) != len(cfgB) || (objsA == nil) != (objsB == nil) || len(objsA) != len(objsB) {
		return false
	}
	for i := range cfgA {
		if cfgA[i] != cfgB[i] {
			return false
		}
	}
	for i := range objsA {
		if math.Float64bits(objsA[i]) != math.Float64bits(objsB[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeEvalValueMatchesReference: on arbitrary bytes the hand
// decoder returns what json.Unmarshal returns and fails when it fails —
// nil against empty slices, -0, exponent forms, the numbers strconv
// takes and JSON refuses (leading zeros, "1.", ".5", "+1", hex, Inf),
// integers that overflow, trailing bytes, whitespace, reordered,
// repeated and unknown fields. Seeded with what the encoder writes for
// FuzzEvalValueMatchesReference's corpus, so encode→decode round trips
// are in it.
func FuzzDecodeEvalValueMatchesReference(f *testing.F) {
	for _, s := range []struct {
		cfg  skeleton.Config
		objs []float64
	}{
		{skeleton.Config{64, 8}, []float64{0.5, 8}},
		{skeleton.Config{-1, math.MaxInt64}, []float64{math.Copysign(0, -1), 0}},
		{skeleton.Config{0, math.MinInt64}, []float64{1e-6, 9.999999999999999e-7}},
		{skeleton.Config{1, 2}, []float64{1e21, 9.999999999999999e20}},
		{skeleton.Config{1, 2}, []float64{1e-7, -1.5e-9}},
		{skeleton.Config{1, 2}, []float64{1.7976931348623157e308, 5e-324}},
		{skeleton.Config{1, 2}, []float64{1e100, -1e-100}},
		{nil, nil},
		{skeleton.Config{}, []float64{}},
		{skeleton.Config{1}, []float64{0.1, 123456789.125, 0.1}},
		{skeleton.Config{64, 64, 8, 4}, nil},
	} {
		val, err := appendEvalValue(nil, s.cfg, s.objs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(val)
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{"config":[1],"objectives":[2]}x`, `{"config":[1],"objectives":[2]} `,
		` {"config":[1],"objectives":[2]}`, `{"config": [1],"objectives":[2]}`, `{"config":[1, 2],"objectives":[2]}`,
		`{"objectives":[2],"config":[1]}`, `{"config":[1],"objectives":[2],"config":[3]}`,
		`{"config":[1],"objectives":[2],"extra":true}`, `{"Config":[1],"OBJECTIVES":[2]}`,
		`{"config":[1]}`, `{"config":[1],"objectives":[2]`, `{"config":[1],"objectives":[2]}}`,
		`{"config":[01],"objectives":[2]}`, `{"config":[1],"objectives":[02]}`, `{"config":[-0],"objectives":[-0]}`,
		`{"config":[1],"objectives":[1.]}`, `{"config":[1],"objectives":[.5]}`, `{"config":[1],"objectives":[+1]}`,
		`{"config":[1],"objectives":[1e]}`, `{"config":[1],"objectives":[1e+]}`, `{"config":[1],"objectives":[1E+2,1e-2,1.5E3]}`,
		`{"config":[1],"objectives":[0x10]}`, `{"config":[1],"objectives":[Inf]}`, `{"config":[1],"objectives":[NaN]}`,
		`{"config":[1],"objectives":[1_0]}`, `{"config":[1],"objectives":[1e999]}`, `{"config":[1],"objectives":[1e-999]}`,
		`{"config":[1.0],"objectives":[2]}`, `{"config":[1e2],"objectives":[2]}`, `{"config":[9223372036854775808],"objectives":[2]}`,
		`{"config":[-9223372036854775809],"objectives":[2]}`, `{"config":[1,],"objectives":[2]}`, `{"config":[,1],"objectives":[2]}`,
		`{"config":[1,,2],"objectives":[2]}`, `{"config":[1],"objectives":[2,]}`, `{"config":[],"objectives":[]}`,
		`{"config":null,"objectives":null}`, `{"config":nul,"objectives":null}`, `{"config":[1],"objectives":nullx}`,
		`{"config":[[1]],"objectives":[2]}`, `{"config":[1],"objectives":[[2]]}`, `{"config":["1"],"objectives":[2]}`,
		`{"config":[1],"objectives":["2"]}`, `{"config":[1],"objectives":[true]}`, `{"config":[1],"objectives":[null]}`,
		`{"config":[null],"objectives":[2]}`, `{"config":[-],"objectives":[2]}`, `{"config":[1],"objectives":[-]}`,
		`{"config":[1],"objectives":[0.1e1]}`, `{"config":[1],"objectives":[00]}`, `{"config":[1],"objectives":[0e0]}`,
		`{"config":[1]"objectives":[2]}`, "{\"config\":[1],\n\"objectives\":[2]}", `{"config":[1],"objectives":[2` + "\x00" + `]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantCfg, wantObjs, wantErr := referenceDecodeEvalValue(data)
		cfg, objs, err := decodeEvalValue(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decodeEvalValue(%q) error = %v, json.Unmarshal error = %v", data, err, wantErr)
		}
		if err == nil && !sameDecoded(cfg, objs, wantCfg, wantObjs) {
			t.Fatalf("decodeEvalValue(%q) = %#v %#v, json.Unmarshal gives %#v %#v", data, cfg, objs, wantCfg, wantObjs)
		}
		if cfg, objs, ok := parseEvalValue(data); ok && (wantErr != nil || !sameDecoded(cfg, objs, wantCfg, wantObjs)) {
			t.Fatalf("the strict decoder takes %q as %#v %#v, json.Unmarshal gives %#v %#v (error %v)", data, cfg, objs, wantCfg, wantObjs, wantErr)
		}
	})
}

// TestDecodeEvalValueTakesWhatTheEncoderWrites: everything
// appendEvalValue produces goes down the strict path, not the
// json.Unmarshal one — the fuzzer would not notice a decoder that
// always fell back.
func TestDecodeEvalValueTakesWhatTheEncoderWrites(t *testing.T) {
	for _, objs := range [][]float64{nil, {}, {0.5, 8}, {math.Copysign(0, -1), 1e-7, 1e21, 5e-324, -123456789.125}} {
		for _, cfg := range []skeleton.Config{nil, {}, {64, 64, 8, 4}, {math.MinInt64, math.MaxInt64, 0, -1}} {
			val, err := appendEvalValue(nil, cfg, objs)
			if err != nil {
				t.Fatal(err)
			}
			gotCfg, gotObjs, ok := parseEvalValue(val)
			if !ok || !sameDecoded(gotCfg, gotObjs, cfg, objs) {
				t.Fatalf("parseEvalValue(%s) = %#v %#v %v, encoded from %#v %#v", val, gotCfg, gotObjs, ok, cfg, objs)
			}
		}
	}
}

// referenceShardHash is the routing function before it learned to
// report whether its argument holds the fingerprint whole.
func referenceShardHash(storeKey string) uint32 {
	rest := storeKey
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(rest))
	return h.Sum32()
}

// TestShardHashMatchesReference: every store key is placed where it was
// placed before — a database written by the parent opens under this
// routing — and every prefix the function calls complete hashes like
// the keys it is a prefix of, which is what lets Iter read one shard.
// The scans the warm start makes are complete; a bare namespace or a
// fingerprint cut short is not.
func TestShardHashMatchesReference(t *testing.T) {
	key := testKey()
	ks := key.String()
	for _, sk := range []string{
		evalStoreKey(ks, "64,64,8"), evalStoreKey(ks, ""), frontStoreKey(ks), keyStoreKey(ks),
		"", "e", "e|", "|", "||", "e||x", "no-separator", "e|pg01", "e|pg01|", "x|y|z|w",
	} {
		for n := 0; n <= len(sk); n++ {
			prefix := sk[:n]
			h, complete := shardHash(prefix)
			if want := referenceShardHash(prefix); h != want {
				t.Fatalf("shardHash(%q) = %d, was %d", prefix, h, want)
			}
			if strings.Count(prefix, "|") >= 2 != complete {
				t.Fatalf("shardHash(%q) complete = %v", prefix, complete)
			}
			if full, _ := shardHash(sk); complete && full != h {
				t.Fatalf("prefix %q is complete and hashes %d, key %q hashes %d", prefix, h, sk, full)
			}
		}
	}
	for _, prefix := range []string{nsEval + ks, nsEval + ks + "|", nsFront + key.Fingerprint + "|", nsKey + key.Fingerprint + "|"} {
		if _, complete := shardHash(prefix); !complete {
			t.Fatalf("scan prefix %q is not a single-shard scan", prefix)
		}
	}
	for _, prefix := range []string{nsEval, nsKey + key.Fingerprint, nsKey + key.Fingerprint[:4]} {
		if _, complete := shardHash(prefix); complete {
			t.Fatalf("scan prefix %q reads one shard but names none", prefix)
		}
	}
}

// warmDB builds the database a served warm job starts from: n stored
// evaluations of testKey — every tenth a known failure — spread over
// two flushed segments and the memtable, with seven other programs
// stored beside it.
func warmDB(t testing.TB, dir string, fsys chaos.FS, n int) *DB {
	t.Helper()
	db, err := OpenFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for part := 0; part < 3; part++ {
		for prog := 0; prog < 8; prog++ {
			key := testKey()
			if prog > 0 {
				key.Fingerprint = fmt.Sprintf("pg%016x", prog)
			}
			cfgs := make([]skeleton.Config, n/3)
			objs := make([][]float64, n/3)
			for i := range cfgs {
				cfgs[i] = skeleton.Config{int64(part), int64(i), 64, 8}
				if i%10 != 9 {
					objs[i] = []float64{0.0123456789 * float64(i+1), 8 + float64(part)}
				}
			}
			if err := db.PutEvals(key, cfgs, keysOf(cfgs), objs); err != nil {
				t.Fatal(err)
			}
		}
		if part < 2 {
			if err := db.st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates on average over runs calls, after one warm-up call, at
// GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func newCache() *objective.CachingEvaluator {
	return objective.NewCachingEvaluator([]string{"time", "resources"}, 1, func(skeleton.Config) []float64 { return nil })
}

// TestWarmCacheAllocationBudget bounds what warm-starting from a
// flushed shard allocates. In allocations: per stored record no more
// than its share of the slabs its configuration and objectives are
// decoded into, of the history's slices and of the cache; per scan a
// constant. The cache keys the records under the history's key
// strings, cut from one string per scan, so it renders none. A scan
// that read every frame into a buffer of its own, with a key string and
// a configuration and objectives of their own, spent some 3.3 per
// record; before the decoder was rebuilt a warm start spent some 18 —
// reflection, boxed heap entries, a copy of every value and of every
// objective vector. In bytes: what the warm start keeps (the resident
// history the cache reads in place) and once more that much, since the
// history's slices grow by doubling and so copy at most what they come
// to hold, plus 128 KiB. The segments are read into recycled chunks,
// which cost nothing; a scan that read every chunk into a buffer of its
// own allocated 654,704 bytes keeping 238,224 at 1,500 records and
// 2,830,960 keeping 950,912 at 6,000.
func TestWarmCacheAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops what it is given")
	}
	for _, n := range []int{1500, 6000} {
		db := warmDB(t, t.TempDir(), nil, n)
		key := testKey()
		perWarm := testing.AllocsPerRun(10, func() {
			forgetResident(db) // every run is a first warm start: a scan
			if primed, err := db.Warm(key, newCache()); err != nil || primed != n {
				t.Fatalf("primed %d of %d: %v", primed, n, err)
			}
		})
		if budget := 0.1*float64(n) + 200; perWarm > budget {
			t.Fatalf("Warm over %d records allocates %.0f times, budget %.0f", n, perWarm, budget)
		}
		allocated, kept := scanningWarmBytes(t, db, key, n)
		if budget := 2*kept + 128<<10; allocated > budget {
			t.Errorf("Warm over %d records allocates %d bytes and keeps %d, budget %d", n, allocated, kept, budget)
		}
		t.Logf("%d records: %.3f allocations a record; %d bytes allocated, %d kept", n, perWarm/float64(n), allocated, kept)
	}
}

// scanningWarmBytes measures one first warm start of key over its n
// stored records at GOMAXPROCS 1 with the collector held off: the heap
// bytes it allocates, and those still live once it is over, the cache
// it primed held. The warm start before it leaves the read chunks in
// their pool, as the scans of a running server find them.
func scanningWarmBytes(t *testing.T, db *DB, key Key, n int) (allocated, kept uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	forgetResident(db)
	if _, err := db.Warm(key, newCache()); err != nil {
		t.Fatal(err)
	}
	forgetResident(db)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, warmed, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ce := newCache()
	if primed, err := db.Warm(key, ce); err != nil || primed != n {
		t.Fatalf("primed %d of %d: %v", primed, n, err)
	}
	runtime.ReadMemStats(&warmed)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ce)
	return warmed.TotalAlloc - before.TotalAlloc, after.HeapAlloc - before.HeapAlloc
}

// TestWarmFailsOnReadFault: a warm start whose scan hits a read fault —
// in the first block of a segment or deep inside one — reports the
// store's error, primes nothing and leaves nothing resident, and so
// does a seed lookup; the error-dropping forms the benchmark still calls
// read the same faults as an empty database. Once the fault is gone the
// same calls succeed: the next warm start scans again and is complete,
// the one after it reads the history that one kept.
func TestWarmFailsOnReadFault(t *testing.T) {
	const n = 1500
	inj := chaos.NewInjector(nil)
	db := warmDB(t, t.TempDir(), inj, n)
	key := testKey()
	if err := db.PutFront(testFront(key)); err != nil {
		t.Fatal(err)
	}
	if err := db.st.Flush(); err != nil {
		t.Fatal(err)
	}
	sig := machine.SignatureOf(machine.Westmere())
	for _, after := range []int{0, 1, 2} {
		ce := newCache()
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg", After: after})
		primed, err := db.Warm(key, ce)
		if !errors.Is(err, chaos.ErrInjected) || primed != 0 {
			t.Fatalf("fault after %d reads: Warm = %d, %v; want the injected error and nothing primed", after, primed, err)
		}
		if _, ok := ce.Lookup(skeleton.Config{0, 0, 64, 8}); ok {
			t.Fatalf("fault after %d reads: a failed warm start left the cache partly primed", after)
		}
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg"})
		if primed := db.WarmCache(key, ce); primed != 0 {
			t.Fatalf("WarmCache primed %d records from a failed scan", primed)
		}
		if got := residencyOf(db); got != (residency{}) {
			t.Fatalf("fault after %d reads: failed scans left %+v resident", after, got)
		}
	}

	// The exact front is a point lookup, a transferred one a scan: both
	// must tell a read fault from an absent front.
	other := key
	other.MachineSig = machine.SignatureOf(machine.Barcelona()).Key()
	for _, k := range []Key{key, other} {
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg"})
		if seeds, err := db.Seeds(k, sig, testSpace(), 4); !errors.Is(err, chaos.ErrInjected) || seeds != nil {
			t.Fatalf("Seeds = %v, %v; want the injected error", seeds, err)
		}
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg"})
		if _, _, ok := db.NearestFront(k, sig); ok {
			t.Fatal("NearestFront found a front through a read fault")
		}
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg"})
		if seeds := db.SeedPopulation(k, sig, testSpace(), 4); seeds != nil {
			t.Fatalf("SeedPopulation = %v through a read fault", seeds)
		}
	}
	inj.Add(chaos.Fault{Op: chaos.OpRead, Path: ".seg"})
	if _, err := db.EvalCount(key); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("EvalCount error = %v, want the injected error", err)
	}

	inj.Clear()
	for i, want := range []residency{{n, 0, 1}, {n, 1, 1}} {
		if primed, err := db.Warm(key, newCache()); err != nil || primed != n {
			t.Fatalf("healthy disk: Warm = %d, %v; want %d", primed, err, n)
		}
		if got := residencyOf(db); got != want {
			t.Fatalf("healthy disk, warm start %d: residency %+v, want %+v", i, got, want)
		}
	}
	if seeds, err := db.Seeds(other, sig, testSpace(), 4); err != nil || len(seeds) != 2 {
		t.Fatalf("healthy disk: Seeds = %v, %v; want the stored front's two points", seeds, err)
	}
}

// TestJobIDsKeepNoReadChunk: a server keeps the id of every job Jobs
// hands it for as long as it runs, so an id is a copy of its own and not
// a view of the chunk its record was read in. Holding the ids of 400 job
// records of 4 KiB read from segments keeps a few KiB alive, not the
// 1.6 MB of chunks they were read in.
func TestJobIDsKeepNoReadChunk(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	const n = 400
	rec := bytes.Repeat([]byte("x"), 4<<10)
	for i := 0; i < n; i++ {
		if err := db.PutJob(fmt.Sprintf("j%06d", i), rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.st.Flush(); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	ids := make([]string, 0, n)
	before := live()
	if err := db.Jobs(func(id string, _ []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kept := live() - before
	if len(ids) != n {
		t.Fatalf("Jobs handed out %d ids, want %d", len(ids), n)
	}
	runtime.KeepAlive(ids)
	if kept > 256<<10 {
		t.Errorf("holding %d job ids keeps %d KiB alive, want at most 256", n, kept>>10)
	}
}

// TestScanResultsOutliveTheIterator: what a scan hands out lasts as
// long as its documentation says. A key and a value of Iter read intact
// up to the following Next, and so does the keyStr of ScanEvals up to
// the end of its callback, while another goroutine scans beside them
// (under the race detector, a chunk given back too early and read into
// by the other scan is a race — reliably at GOMAXPROCS 1, where the
// pool's one per-processor cache hands the other goroutine what this
// one gave back); each is the stored record, and
// appending to a handed-out value changes no other record. The
// configurations and objectives of ScanEvals are the caller's for good:
// they keep their values through the scan's further callbacks, its end
// and later scans, which run beside a goroutine reading them, and
// appending to one, during the scan or after it, changes no other. The
// history spans two segments, each read in more than one chunk, and the
// memtable.
func TestScanResultsOutliveTheIterator(t *testing.T) {
	const n = 1500
	db := warmDB(t, t.TempDir(), nil, n)
	ks := testKey().String()
	stopBeside := scanBeside(db, evalStoreKey(ks, ""))
	defer stopBeside()

	records := 0
	it := db.st.Iter(evalStoreKey(ks, ""))
	for it.Next() {
		key, val := it.Key(), it.Value()
		wantKey, wantVal := strings.Clone(key), bytes.Clone(val)
		if stored, ok, err := db.st.Get(wantKey); err != nil || !ok || !bytes.Equal(stored, wantVal) {
			t.Fatalf("record %d: Iter hands out %q = %q, Get reads %q, %v, %v", records, wantKey, wantVal, stored, ok, err)
		}
		// Long enough to reach the key of a frame read behind it.
		_ = append(val, clobber...)
		runtime.Gosched()
		if key != wantKey || !bytes.Equal(val, wantVal) {
			t.Fatalf("record %d was handed out as %q = %q and reads %q = %q before the next Next", records, wantKey, wantVal, key, val)
		}
		records++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()

	type eval struct {
		cfg  skeleton.Config
		objs []float64
	}
	var gotEvals, wantEvals []eval
	badKey := ""
	if err := db.ScanEvals(ks, func(keyStr string, cfg skeleton.Config, objs []float64) bool {
		wantKeyStr := strings.Clone(keyStr)
		gotEvals = append(gotEvals, eval{cfg, objs})
		wantEvals = append(wantEvals, eval{slices.Clone(cfg), slices.Clone(objs)})
		runtime.Gosched()
		if keyStr != wantKeyStr || keyStr != ks {
			badKey = fmt.Sprintf("evaluation %d: keyStr %q reads %q at the end of its callback, want %q", len(gotEvals)-1, wantKeyStr, keyStr, ks)
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if badKey != "" {
		t.Fatal(badKey)
	}
	if records != n || len(gotEvals) != n {
		t.Fatalf("the scans handed out %d records and %d evaluations, want %d", records, len(gotEvals), n)
	}
	for i := range gotEvals {
		_ = append(gotEvals[i].cfg, -1)
		_ = append(gotEvals[i].objs, -1)
	}

	check := func() error {
		for i := range gotEvals {
			g, w := gotEvals[i], wantEvals[i]
			if !sameDecoded(g.cfg, g.objs, w.cfg, w.objs) {
				return fmt.Errorf("evaluation %d is now %v %v, was handed out as %v %v", i, g.cfg, g.objs, w.cfg, w.objs)
			}
		}
		return nil
	}
	concurrent := make(chan error)
	go func() { concurrent <- check() }()
	for round := 0; round < 3; round++ {
		it := db.st.Iter("")
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if err := db.ScanEvals("", func(string, skeleton.Config, []float64) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-concurrent; err != nil {
		t.Fatalf("while later scans ran: %v", err)
	}
	if err := check(); err != nil {
		t.Fatalf("after later scans: %v", err)
	}
	if err := stopBeside(); err != nil {
		t.Fatalf("the scan beside: %v", err)
	}
}

// scanBeside opens scans of the store keys with prefix over and over in
// a goroutine of its own — each reads the first record, which fills the
// scan's chunks from the pool, closes and yields, so that at GOMAXPROCS
// 1 too it takes turns with the scan under check — until the returned
// stop is called, which returns the first error a scan met. Calling stop
// again returns nil.
func scanBeside(db *DB, prefix string) (stop func() error) {
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-quit:
				done <- nil
				return
			default:
			}
			it := db.st.Iter(prefix)
			it.Next()
			err := it.Err()
			it.Close()
			if err != nil {
				<-quit
				done <- err
				return
			}
			runtime.Gosched()
		}
	}()
	var once sync.Once
	return func() (err error) {
		once.Do(func() {
			close(quit)
			err = <-done
		})
		return err
	}
}

// clobber is what TestScanResultsOutliveTheIterator appends to a
// handed-out value.
var clobber = bytes.Repeat([]byte{'!'}, 64)

var (
	sinkCfg  skeleton.Config
	sinkObjs []float64
)

// benchValue is the value of a four-parameter, two-objective
// evaluation, the size service jobs store.
var benchValue = []byte(`{"config":[64,128,64,8],"objectives":[0.0123456789,17.25]}`)

func BenchmarkDecodeEvalValue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkCfg, sinkObjs, err = decodeEvalValue(benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEvalValueReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkCfg, sinkObjs, err = referenceDecodeEvalValue(benchValue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmCache warm-starts the first served job on a key: 3,500
// records of it across two segments and a memtable, 16 shards of which
// eight programs populate theirs, none of it resident.
func BenchmarkWarmCache(b *testing.B) {
	const n = 3498
	db := warmDB(b, b.TempDir(), nil, n)
	key := testKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forgetResident(db)
		if primed, err := db.Warm(key, newCache()); err != nil || primed != n {
			b.Fatalf("primed %d of %d: %v", primed, n, err)
		}
	}
}

// TestMergeFailsOnReadFault: Merge keeps the records already present
// locally, so a local lookup it cannot complete — the front or an
// evaluation, on the first read or on every read — must fail the merge
// rather than read as "absent" and let the incoming record replace the
// local one; and an incoming front it cannot read must fail the merge
// rather than be dropped while Merge reports success.
func TestMergeFailsOnReadFault(t *testing.T) {
	key := testKey()
	cfg := skeleton.Config{64, 64, 8}
	localObjs := []float64{0.5, 8}
	incoming := testFront(key)
	incoming.Evaluations = 999

	// Two sources: one holds an evaluation of the local configuration,
	// the other a front under the local front's key.
	evalSrc, frontSrc := t.TempDir(), t.TempDir()
	for dir, put := range map[string]func(*DB) error{
		evalSrc:  func(db *DB) error { return db.PutEval(key, cfg, []float64{9, 9}) },
		frontSrc: func(db *DB) error { return db.PutFront(incoming) },
	} {
		src := mustOpen(t, dir)
		if err := put(src); err != nil {
			t.Fatal(err)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}

	inj := chaos.NewInjector(nil)
	db, err := OpenFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.PutEval(key, cfg, localObjs); err != nil {
		t.Fatal(err)
	}
	if err := db.PutFront(testFront(key)); err != nil {
		t.Fatal(err)
	}
	if err := db.st.Flush(); err != nil { // both records now live in a segment
		t.Fatal(err)
	}
	readFaults := func(n int) []chaos.Fault {
		faults := make([]chaos.Fault, n)
		for i := range faults {
			faults[i] = chaos.Fault{Op: chaos.OpRead, Path: ".seg"}
		}
		return faults
	}
	for _, src := range []string{evalSrc, frontSrc} {
		for _, faults := range [][]chaos.Fault{readFaults(1), readFaults(64)} {
			fired := inj.Injected()
			inj.Add(faults...)
			evals, fronts, err := db.Merge(src)
			inj.Clear()
			if inj.Injected() == fired {
				t.Fatalf("%d read faults: none fired", len(faults))
			}
			if !errors.Is(err, chaos.ErrInjected) || evals != 0 || fronts != 0 {
				t.Errorf("%d read faults: Merge = %d evals, %d fronts, %v; want the injected error and nothing adopted", len(faults), evals, fronts, err)
			}
			if objs, ok := db.GetEval(key, cfg); !ok || fmt.Sprint(objs) != fmt.Sprint(localObjs) {
				t.Fatalf("%d read faults: the local evaluation reads %v, %v after the merge; want %v", len(faults), objs, ok, localObjs)
			}
			if rec, ok, err := db.front(key); err != nil || !ok || rec.Evaluations != testFront(key).Evaluations {
				t.Fatalf("%d read faults: the local front reads %+v, %v, %v after the merge; want it kept", len(faults), rec, ok, err)
			}
		}
	}

	// An incoming front that cannot be read is an error, not a front
	// the merge silently leaves behind. The source holds 40 fronts of
	// one program, so they share a shard, and the second one's record
	// is damaged: the source's key and evaluation scans never read it,
	// only the front lookup does.
	damagedSrc := t.TempDir()
	src := mustOpen(t, damagedSrc)
	var damaged Key
	for i := 0; i < 40; i++ {
		k := key
		k.SpaceHash = fmt.Sprintf("sp%016d", i)
		rec := testFront(k)
		if err := src.PutFront(rec); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			damaged = k
		}
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(damagedSrc, "store", "shard-*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	record := []byte(frontStoreKey(damaged.String()))
	flipped := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(data, record); at >= 0 {
			data[at+len(record)+4] ^= 0x20 // inside the record's JSON value
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("the front record is in %d segments, want 1", flipped)
	}
	fresh := mustOpen(t, t.TempDir())
	defer fresh.Close()
	if evals, fronts, err := fresh.Merge(damagedSrc); err == nil {
		t.Errorf("merging an unreadable front succeeded, adopting %d evals and %d fronts", evals, fronts)
	}
}
