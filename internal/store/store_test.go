package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"autotune/internal/chaos"
)

// small returns options that exercise flushes and compactions with few
// records: a tiny memtable and index stride.
func small() Options {
	return Options{
		Shards:        4,
		memtableBytes: 1 << 10,
		indexInterval: 4,
		compactFanin:  3,
	}
}

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func key(i int) string      { return fmt.Sprintf("key-%06d", i) }
func val(i, gen int) []byte { return []byte(fmt.Sprintf("value-%d-gen-%d", i, gen)) }
func putN(t *testing.T, st *Store, n, gen int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Put(key(i), val(i, gen)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPutGetAcrossFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, small())
	const n = 300 // far past the 1 KiB memtable: many flushed segments
	putN(t, st, n, 0)
	for i := 0; i < n; i++ {
		v, ok, err := st.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != string(val(i, 0)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, ok)
		}
	}
	if _, ok, err := st.Get("absent"); err != nil || ok {
		t.Fatalf("Get(absent) = %v, %v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, small())
	defer st2.Close()
	for i := 0; i < n; i++ {
		v, ok, err := st2.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != string(val(i, 0)) {
			t.Fatalf("after reopen Get(%s) = %q, %v", key(i), v, ok)
		}
	}
}

func TestNewestValueWins(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, small())
	const n = 120
	putN(t, st, n, 0)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	putN(t, st, n, 1) // supersede every key across segment boundaries
	for i := 0; i < n; i++ {
		v, ok, _ := st.Get(key(i))
		if !ok || string(v) != string(val(i, 1)) {
			t.Fatalf("Get(%s) = %q, want gen 1", key(i), v)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeadRecords != 0 {
		t.Fatalf("dead records after full compaction: %+v", stats)
	}
	if stats.LiveKeys != n {
		t.Fatalf("live keys = %d, want %d", stats.LiveKeys, n)
	}
	for i := 0; i < n; i++ {
		v, ok, _ := st.Get(key(i))
		if !ok || string(v) != string(val(i, 1)) {
			t.Fatalf("after compact Get(%s) = %q", key(i), v)
		}
	}
	st.Close()
}

func TestShardingByCustomFunc(t *testing.T) {
	dir := t.TempDir()
	opt := small()
	// Everything with prefix "a" goes to one shard, "b" to another.
	opt.ShardBy = func(k string) (uint32, bool) {
		if k[0] == 'a' {
			return 0, false
		}
		return 1, false
	}
	st := mustOpen(t, dir, opt)
	for i := 0; i < 50; i++ {
		st.Put(fmt.Sprintf("a-%03d", i), []byte("x"))
		st.Put(fmt.Sprintf("b-%03d", i), []byte("y"))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards[0].LiveKeys != 50 || stats.Shards[1].LiveKeys != 50 {
		t.Fatalf("shard routing wrong: %+v", stats.Shards)
	}
	if stats.Shards[2].LiveKeys != 0 || stats.Shards[3].LiveKeys != 0 {
		t.Fatalf("unexpected keys in unused shards: %+v", stats.Shards)
	}
	// Shard directories exist on disk with their own WAL.
	if _, err := os.Stat(filepath.Join(dir, "shard-00", walName)); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

// byPrefixLetter shards "a…" keys to shard 0 and everything else to
// shard 1, so tests can build batches whose placement they know.
func byPrefixLetter(k string) (uint32, bool) {
	if k != "" && k[0] == 'a' {
		return 0, false
	}
	return 1, false
}

// TestPutBatch: a batch is one WAL frame and one write on one shard,
// visible whole (a later record superseding an earlier one under the
// same key) before and after reopen; a batch that cannot be
// all-or-nothing — keys on two shards — or is malformed is refused with
// nothing written, and an empty one is a no-op.
func TestPutBatch(t *testing.T) {
	dir := t.TempDir()
	// The second WAL write fails: the five-record batch below must be
	// the first on its own, and the Put after it the second.
	inj := chaos.NewInjector(nil, chaos.Fault{Op: chaos.OpWrite, Path: walName, After: 1})
	opt := chaosOptions(inj)
	opt.ShardBy = byPrefixLetter
	opt.memtableBytes = 1 << 20 // no flushes: everything stays in the WAL
	st := mustOpen(t, dir, opt)

	if err := st.PutBatch([]string{"a1", "b1"}, [][]byte{[]byte("x"), []byte("y")}); err == nil {
		t.Fatal("batch across two shards accepted")
	}
	if err := st.PutBatch([]string{"a1", "a2"}, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("batch of two keys and one value accepted")
	}
	if err := st.PutBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	for _, k := range []string{"a1", "a2", "b1"} {
		if _, ok, _ := st.Get(k); ok {
			t.Fatalf("refused batch stored %q", k)
		}
	}

	keys := []string{"a1", "a2", "a3", "a1", "a4"}
	vals := [][]byte{[]byte("old"), []byte("2"), nil, []byte("new"), []byte("4")}
	if err := st.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, "shard-00", walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != frameSize(keys, vals) {
		t.Fatalf("wal holds %d bytes, one frame of the batch is %d", len(wal), frameSize(keys, vals))
	}
	if err := st.Put("a5", []byte("5")); err == nil {
		t.Fatal("the batch took more than one WAL write: the armed fault did not reach the next Put")
	}
	want := map[string]string{"a1": "new", "a2": "2", "a3": "", "a4": "4"}
	check := func(st *Store, when string) {
		t.Helper()
		for k, v := range want {
			if got, ok, err := st.Get(k); err != nil || !ok || string(got) != v {
				t.Fatalf("%s: Get(%s) = %q %v %v, want %q", when, k, got, ok, err, v)
			}
		}
		if _, ok, _ := st.Get("a5"); ok {
			t.Fatalf("%s: failed put is visible", when)
		}
	}
	check(st, "after the batch")
	st.Close()
	st2 := mustOpen(t, dir, Options{ShardBy: byPrefixLetter})
	defer st2.Close()
	check(st2, "after reopen")
}

// TestPutBatchCopiesWhatItIsHanded: a caller may reuse its key list,
// its value list and the bytes the values were cut from as soon as Put
// or PutBatch returns — the store copies the values and keeps only the
// key strings, which no caller can write. Get, Iter and a reopen all
// return what was handed over, not what the caller's buffers hold
// after.
func TestPutBatchCopiesWhatItIsHanded(t *testing.T) {
	dir := t.TempDir()
	opt := small()
	opt.ShardBy = byPrefixLetter
	opt.memtableBytes = 1 << 20 // everything stays in the memtable until reopen
	st := mustOpen(t, dir, opt)

	const n = 20
	want := map[string]string{}
	buf := make([]byte, 0, 16*n)
	keys := make([]string, 0, n)
	vals := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("a%03d", i), fmt.Sprintf("value-%d", i)
		at := len(buf)
		buf = append(buf, v...)
		keys, vals = append(keys, k), append(vals, buf[at:len(buf):len(buf)])
		want[k] = v
	}
	one := []byte("lone value")
	if err := st.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a999", one); err != nil {
		t.Fatal(err)
	}
	want["a999"] = "lone value"
	for i := range buf {
		buf[i] = '#'
	}
	for i := range one {
		one[i] = '#'
	}
	for i := range keys {
		keys[i], vals[i] = "a-overwritten", []byte("overwritten")
	}

	check := func(st *Store, when string) {
		t.Helper()
		for k, v := range want {
			if got, ok, err := st.Get(k); err != nil || !ok || string(got) != v {
				t.Fatalf("%s: Get(%s) = %q %v %v, want %q", when, k, got, ok, err, v)
			}
		}
		it := st.Iter("a")
		defer it.Close()
		seen := 0
		for it.Next() {
			if v, ok := want[it.Key()]; !ok || string(it.Value()) != v {
				t.Fatalf("%s: Iter yields %q = %q, want %q (stored: %v)", when, it.Key(), it.Value(), v, ok)
			}
			seen++
		}
		if err := it.Err(); err != nil || seen != len(want) {
			t.Fatalf("%s: Iter yields %d records, want %d: %v", when, seen, len(want), err)
		}
	}
	check(st, "in the memtable")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, Options{Shards: opt.Shards, ShardBy: byPrefixLetter})
	defer st2.Close()
	check(st2, "after reopen")
}

// TestPutBatchTornAppendLosesTheWholeBatch: a batch whose WAL append
// tears takes effect nowhere — not in the open store, not after reopen,
// where the torn frame is dropped with every record it held — while the
// frame before it survives.
func TestPutBatchTornAppendLosesTheWholeBatch(t *testing.T) {
	dir := t.TempDir()
	// Torn deep enough that the first record of the batch is complete
	// on disk: replay must still not apply it.
	inj := chaos.NewInjector(nil, chaos.Fault{Op: chaos.OpWrite, Path: walName, After: 1, TornBytes: 40})
	opt := chaosOptions(inj)
	opt.Shards = 1
	opt.memtableBytes = 1 << 20
	st := mustOpen(t, dir, opt)
	if err := st.Put("kept", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	keys := []string{"torn-1", "torn-2", "torn-3"}
	vals := [][]byte{[]byte("value-1"), []byte("value-2"), []byte("value-3")}
	if frameHeader+8+len(keys[0])+len(vals[0]) > 40 || frameSize(keys, vals) <= 40 {
		t.Fatal("the tear must fall after the first record and inside the frame")
	}
	if err := st.PutBatch(keys, vals); err == nil {
		t.Fatal("torn batch acknowledged")
	}
	for _, k := range keys {
		if _, ok, _ := st.Get(k); ok {
			t.Fatalf("failed batch left %q in the open store", k)
		}
	}
	if !st.Health().ReadOnly {
		t.Fatal("torn WAL append did not fail the shard")
	}
	st.Close()

	st2 := mustOpen(t, dir, Options{Shards: 1})
	defer st2.Close()
	if v, ok, _ := st2.Get("kept"); !ok || string(v) != "yes" {
		t.Fatalf("frame before the torn batch lost: %q %v", v, ok)
	}
	for _, k := range keys {
		if _, ok, _ := st2.Get(k); ok {
			t.Fatalf("torn batch resurrected %q on reopen", k)
		}
	}
}

// TestConcurrentWritersAcrossShards exercises independent shard locks
// under the race detector: concurrent writers on disjoint shards plus
// readers iterating the whole store during in-flight background
// compactions.
func TestConcurrentWritersAcrossShards(t *testing.T) {
	dir := t.TempDir()
	opt := small()
	st := mustOpen(t, dir, opt)
	const writers = 4
	const perWriter = 400
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%05d", w, i)
				if err := st.Put(k, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers: point gets and full iterations while writes and
	// background compactions are in flight.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 10; pass++ {
				it := st.Iter("")
				prev := ""
				for it.Next() {
					if it.Key() <= prev {
						errs <- fmt.Errorf("iterator out of order: %q after %q", it.Key(), prev)
						it.Close()
						return
					}
					prev = strings.Clone(it.Key())
				}
				if err := it.Err(); err != nil {
					errs <- err
					it.Close()
					return
				}
				it.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, opt)
	defer st2.Close()
	stats, err := st2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LiveKeys != writers*perWriter {
		t.Fatalf("live keys = %d, want %d", stats.LiveKeys, writers*perWriter)
	}
}

func TestClosedStoreRejectsUse(t *testing.T) {
	st := mustOpen(t, t.TempDir(), small())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := st.Put("k", []byte("v")); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if _, _, err := st.Get("k"); err == nil {
		t.Error("Get on closed store succeeded")
	}
	if err := st.Sync(); err == nil {
		t.Error("Sync on closed store succeeded")
	}
}

func TestMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	opt := small()
	opt.Shards = 4
	st := mustOpen(t, dir, opt)
	putN(t, st, 40, 0)
	st.Close()
	// Reopen asking for a different shard count: meta.json wins.
	opt2 := small()
	opt2.Shards = 9
	st2 := mustOpen(t, dir, opt2)
	defer st2.Close()
	stats, err := st2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("shard count not pinned by meta: %d", len(stats.Shards))
	}
	if stats.LiveKeys != 40 {
		t.Fatalf("live keys = %d", stats.LiveKeys)
	}
}

func TestSyncAndDirAreReported(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, small())
	defer st.Close()
	if st.dir != dir {
		t.Fatalf("dir = %q", st.dir)
	}
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactErrBookkeeping(t *testing.T) {
	st := mustOpen(t, t.TempDir(), small())
	defer st.Close()
	first, second := fmt.Errorf("first"), fmt.Errorf("second")
	st.noteCompactErr(first)
	st.noteCompactErr(second) // first error wins
	if err := st.takeCompactErr(); err != first {
		t.Fatalf("takeCompactErr = %v, want first", err)
	}
	if err := st.takeCompactErr(); err != nil {
		t.Fatalf("cleared error resurfaced: %v", err)
	}
}

func TestBloomFiltersSkipAbsentLookups(t *testing.T) {
	dir := t.TempDir()
	opt := small()
	opt.Shards = 1
	st := mustOpen(t, dir, opt)
	defer st.Close()
	const n = 200
	putN(t, st, n, 0)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Probe many absent keys: the bloom filters should prove almost
	// all of them absent without touching segment data.
	for i := 0; i < 500; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("absent-%05d", i)); ok || err != nil {
			t.Fatalf("absent key found: %v %v", ok, err)
		}
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.Shards[0]
	if ss.BloomFiltered == 0 {
		t.Fatalf("bloom filtered nothing: %+v", ss)
	}
	if fpr := float64(ss.BloomFalsePositives) / float64(ss.BloomFiltered+ss.BloomFalsePositives); fpr > 0.1 {
		t.Fatalf("measured FPR %.3f implausibly high (est %.4f)", fpr, ss.BloomFPREstimate)
	}
	if ss.BloomFPREstimate <= 0 || ss.BloomFPREstimate > 0.05 {
		t.Fatalf("estimated FPR out of range: %v", ss.BloomFPREstimate)
	}
}

func TestBloomRoundTrip(t *testing.T) {
	b := newBloom(100)
	for i := 0; i < 100; i++ {
		b.add(hashKey(key(i)))
	}
	raw := b.marshal(nil)
	b2, err := unmarshalBloom(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !b2.test(hashKey(key(i))) {
			t.Fatalf("inserted key %d missing after round trip", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b2.test(hashKey(fmt.Sprintf("other-%d", i))) {
			fp++
		}
	}
	if fp > 100 {
		t.Fatalf("%d/1000 false positives", fp)
	}
	if _, err := unmarshalBloom(raw[:4]); err == nil {
		t.Fatal("truncated bloom unmarshalled")
	}
}
