package store

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"autotune/internal/chaos"
	"autotune/internal/israce"
)

// The scan Store.Iter replaced, kept as the reference the rebuilt one is
// held to: every shard whatever the prefix, every memtable key >= the
// prefix, every segment from its index seek to its end, merged through
// container/heap.

type refEntry struct {
	key  string
	val  []byte
	src  stream
	prio int
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].prio > h[b].prio
}
func (h refHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSegStream is the old segIter: from the last index entry at or
// before start to the end of the data section.
type refSegStream struct {
	r       *bufio.Reader
	start   string
	started bool
}

func (it *refSegStream) next() (string, []byte, bool, error) {
	for {
		k, v, _, err := readFrameAt(it.r)
		if err == io.EOF {
			return "", nil, false, nil
		}
		if err != nil {
			return "", nil, false, err
		}
		if !it.started {
			if k < it.start {
				continue
			}
			it.started = true
		}
		return k, append([]byte(nil), v...), true, nil
	}
}

func (it *refSegStream) close() {}

// referenceScan returns what the old Iter(prefix) yielded, in order.
func referenceScan(st *Store, prefix string) ([]Record, error) {
	var h refHeap
	push := func(s stream, prio int) error {
		k, v, ok, err := s.next()
		if err == nil && ok {
			heap.Push(&h, refEntry{key: k, val: v, src: s, prio: prio})
		}
		return err
	}
	prio := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		var memKeys []string
		for k := range sh.mem {
			if k >= prefix {
				memKeys = append(memKeys, k)
			}
		}
		sort.Strings(memKeys)
		memVals := make([][]byte, len(memKeys))
		for i, k := range memKeys {
			memVals[i] = sh.mem[k]
		}
		segs := append([]*segment(nil), sh.segs...)
		for _, s := range segs {
			s.refs++
		}
		sh.mu.Unlock()
		defer sh.release(segs)
		for _, s := range segs {
			off := int64(len(segMagic))
			if i := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > prefix }); i > 0 {
				off = s.index[i-1].off
			}
			src := &refSegStream{r: bufio.NewReaderSize(io.NewSectionReader(s.f, off, s.dataEnd-off), 1<<16), start: prefix}
			if err := push(src, prio); err != nil {
				return nil, err
			}
			prio++
		}
		if err := push(&memStream{keys: memKeys, vals: memVals}, prio); err != nil {
			return nil, err
		}
		prio++
	}
	var out []Record
	for h.Len() > 0 {
		top := heap.Pop(&h).(refEntry)
		if err := push(top.src, top.prio); err != nil {
			return nil, err
		}
		for h.Len() > 0 && h[0].key == top.key {
			dup := heap.Pop(&h).(refEntry)
			if err := push(dup.src, dup.prio); err != nil {
				return nil, err
			}
		}
		if prefix != "" && !strings.HasPrefix(top.key, prefix) {
			break
		}
		out = append(out, Record{Key: top.key, Val: top.val})
	}
	return out, nil
}

// scanAll returns what Iter(prefix) yields, each record a copy of its
// own: a key and a value last only until the following Next.
func scanAll(t testing.TB, st *Store, prefix string) []Record {
	t.Helper()
	it := st.Iter(prefix)
	defer it.Close()
	var out []Record
	for it.Next() {
		out = append(out, Record{Key: strings.Clone(it.Key()), Val: bytes.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// byComponent routes "<ns>|<component>|<rest>" by its component, the
// way tunedb routes by program fingerprint: complete once the second
// separator is there.
func byComponent(s string) (uint32, bool) {
	rest, complete := s, false
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		rest, complete = rest[:i], true
	}
	h := fnv.New32a()
	h.Write([]byte(rest))
	return h.Sum32(), complete
}

// TestIterPrefixMatchesReference: over seeded random stores — four
// shards routed by a real key component, several segments a shard,
// overwrites between memtable, newer and older segments, compactions in
// between — Iter yields for every prefix of every key, the ones that
// name a shard and the ones that do not, exactly the records in exactly
// the order the all-shard scan it replaced yields. And the routing
// contract it relies on holds: a complete prefix hashes like every key
// it is a prefix of.
func TestIterPrefixMatchesReference(t *testing.T) {
	components := []string{"a", "ab", "abc", "b", "ba", "c", "pg01", "pg02", "pg1"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := small()
		opt.ShardBy = byComponent
		opt.NoBackgroundCompaction = true
		st := mustOpen(t, t.TempDir(), opt)
		keys := map[string]bool{}
		for i, n := 0, 300+rng.Intn(300); i < n; i++ {
			k := fmt.Sprintf("%s|%s|%02d", []string{"e", "f"}[rng.Intn(2)], components[rng.Intn(len(components))], rng.Intn(40))
			keys[k] = true
			if err := st.Put(k, []byte(fmt.Sprintf("v%d-%d", seed, i))); err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(60) {
			case 0:
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		prefixes := map[string]bool{"": true, "e|zz|": true, "g": true}
		for k := range keys {
			for n := 1; n <= len(k); n++ {
				prefixes[k[:n]] = true
			}
		}
		for prefix := range prefixes {
			want, err := referenceScan(st, prefix)
			if err != nil {
				t.Fatal(err)
			}
			got := scanAll(t, st, prefix)
			if len(got) != len(want) {
				t.Fatalf("seed %d: Iter(%q) yields %d records, the reference %d", seed, prefix, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || string(got[i].Val) != string(want[i].Val) {
					t.Fatalf("seed %d: Iter(%q)[%d] = %q:%q, the reference has %q:%q",
						seed, prefix, i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
				}
			}
			h, complete := byComponent(prefix)
			if !complete {
				continue
			}
			for k := range keys {
				if kh, _ := byComponent(k); strings.HasPrefix(k, prefix) && kh != h {
					t.Fatalf("prefix %q is complete and hashes %d, key %q hashes %d", prefix, h, k, kh)
				}
			}
			for i := 0; i < 8; i++ {
				ext := prefix + string([]byte{byte(rng.Intn(256)), '|', byte(rng.Intn(256))}[:1+rng.Intn(3)])
				if eh, ec := byComponent(ext); eh != h || !ec {
					t.Fatalf("prefix %q is complete and hashes %d, its extension %q hashes %d (complete %v)", prefix, h, ext, eh, ec)
				}
			}
		}
		st.Close()
	}
}

// readCounts is a pass-through filesystem that counts the ReadAt calls
// per file.
type readCounts struct {
	chaos.OS
	mu    sync.Mutex
	reads map[string]int
}

type readCountFile struct {
	chaos.File
	fs   *readCounts
	name string
}

func (c *readCounts) Open(name string) (chaos.File, error) {
	f, err := c.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return &readCountFile{File: f, fs: c, name: name}, nil
}

func (c *readCounts) reset() {
	c.mu.Lock()
	c.reads = map[string]int{}
	c.mu.Unlock()
}

func (f *readCountFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.reads[f.name]++
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// TestIterPrefixReadsOneShard: a scan whose prefix holds the routing
// component reads the segments of the shard that component hashes to
// and of no other; one that does not hold it still reads them all.
func TestIterPrefixReadsOneShard(t *testing.T) {
	fs := &readCounts{}
	fs.reset()
	opt := small()
	opt.ShardBy = byComponent
	opt.FS = fs
	opt.NoBackgroundCompaction = true
	dir := t.TempDir()
	st := mustOpen(t, dir, opt)
	defer st.Close()
	components := []string{"pg00", "pg01", "pg02", "pg03", "pg04", "pg05", "pg06", "pg07"}
	for round := 0; round < 3; round++ {
		for _, c := range components {
			for i := 0; i < 20; i++ {
				if err := st.Put(fmt.Sprintf("e|%s|%d-%02d", c, round, i), []byte("objectives")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	h, _ := byComponent("e|pg03|")
	own := filepath.Join(dir, fmt.Sprintf("shard-%02d", int(h)%opt.Shards)) + string(os.PathSeparator)
	shardsRead := func() (ownReads int, others map[string]bool) {
		others = map[string]bool{}
		for name, n := range fs.reads {
			if strings.HasPrefix(name, own) {
				ownReads += n
			} else {
				others[filepath.Base(filepath.Dir(name))] = true
			}
		}
		return ownReads, others
	}

	fs.reset()
	if got := scanAll(t, st, "e|pg03|"); len(got) != 60 {
		t.Fatalf("the scan found %d records, want 60", len(got))
	}
	if ownReads, others := shardsRead(); ownReads == 0 || len(others) != 0 {
		t.Fatalf("a shard-complete prefix read %d times from its shard and from %v besides", ownReads, others)
	}

	fs.reset()
	if got := scanAll(t, st, "e|pg0"); len(got) != 480 {
		t.Fatalf("the scan found %d records, want 480", len(got))
	}
	if _, others := shardsRead(); len(others) == 0 {
		t.Fatal("a prefix that names no shard read one shard only: the fixture puts every component in one shard")
	}
}

// TestMergeAllocatesNothing: advancing the merge costs no allocation of
// its own — over memtable streams, which allocate nothing either, Next
// allocates nothing at all. container/heap boxed every record twice.
func TestMergeAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const streams, perStream = 8, 400
	build := func() *Iterator {
		srcs := make([]stream, streams)
		for s := range srcs {
			m := &memStream{}
			for i := 0; i < perStream; i++ {
				// Every third key is in every stream: duplicates to drop.
				k := fmt.Sprintf("key-%05d", i*streams+s)
				if i%3 == 0 {
					k = fmt.Sprintf("key-%05d", i*streams)
				}
				m.keys = append(m.keys, k)
				m.vals = append(m.vals, []byte("v"))
			}
			sort.Strings(m.keys)
			srcs[s] = m
		}
		return newMergedIterator(srcs, "", nil)
	}
	it := build()
	if allocs := testing.AllocsPerRun(1000, func() { it.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %.1f times per call over memtable streams", allocs)
	}
	n := 0
	for it = build(); it.Next(); n++ {
	}
	if want := streams*perStream - (streams-1)*((perStream+2)/3); n != want {
		t.Fatalf("the merge yields %d keys, want %d", n, want)
	}
}

// benchPrefixStore builds the store a warm start reads from: 16 shards
// routed by component, eight programs populated, the one under test
// holding n records spread over two segments and the memtable.
func benchPrefixStore(b *testing.B, n int) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), Options{Shards: 16, ShardBy: byComponent, NoBackgroundCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for part := 0; part < 3; part++ {
		for prog := 0; prog < 8; prog++ {
			keys := make([]string, n/3)
			vals := make([][]byte, n/3)
			for i := range keys {
				keys[i] = fmt.Sprintf("e|pg%016x|westmere-2x6-sig|time+resources|sp0000000000000001|%d,%d,64,8", prog, part, i)
				vals[i] = []byte(fmt.Sprintf(`{"config":[%d,%d,64,8],"objectives":[0.0123456789,0.98765432%d]}`, part, i, i))
			}
			if err := st.PutBatch(keys, vals); err != nil {
				b.Fatal(err)
			}
		}
		if part < 2 {
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// BenchmarkStoreIterPrefix scans one program's 3,500 records out of a
// populated 16-shard store: two segments and a memtable of one shard.
// It keeps nothing it reads, as a warm start keeps no key or value.
func BenchmarkStoreIterPrefix(b *testing.B) {
	st := benchPrefixStore(b, 3500)
	prefix := fmt.Sprintf("e|pg%016x|", 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := st.Iter(prefix)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Err(); err != nil || n != 3498 {
			b.Fatalf("scanned %d records: %v", n, err)
		}
		it.Close()
	}
}

// BenchmarkStoreIterPrefixReference is the same scan the way it was
// done: all 16 shards, 64 KiB of read-ahead a segment, boxed merge.
func BenchmarkStoreIterPrefixReference(b *testing.B) {
	st := benchPrefixStore(b, 3500)
	prefix := fmt.Sprintf("e|pg%016x|", 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := referenceScan(st, prefix)
		if err != nil || len(recs) != 3498 {
			b.Fatalf("scanned %d records: %v", len(recs), err)
		}
	}
}

// TestIterReadFaultSurfaces: a read that fails under a scan — the first
// of a segment, when the merge is being set up, or a later one, deep in
// the iteration — ends it with the filesystem's error, not with a clean
// end of range and not disguised as a torn frame; what the scan yielded
// before is a prefix of the healthy sequence.
func TestIterReadFaultSurfaces(t *testing.T) {
	inj := chaos.NewInjector(nil)
	opt := Options{Shards: 1, FS: inj, NoBackgroundCompaction: true}
	st := mustOpen(t, t.TempDir(), opt)
	defer st.Close()
	const n = 1000 // ~160 KiB of frames: the segment takes three reads
	for i := 0; i < n; i++ {
		if err := st.Put(key(i), append(val(i, 0), make([]byte, 120)...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	healthy := scanAll(t, st, "")
	if len(healthy) != n {
		t.Fatalf("healthy scan yields %d records, want %d", len(healthy), n)
	}
	for _, after := range []int{0, 1, 2} {
		inj.Add(chaos.Fault{Op: chaos.OpRead, Path: segSuffix, After: after})
		it := st.Iter("")
		got := 0
		for it.Next() {
			if it.Key() != healthy[got].Key {
				t.Fatalf("fault after %d reads: record %d is %q, want %q", after, got, it.Key(), healthy[got].Key)
			}
			got++
		}
		err := it.Err()
		it.Close()
		if !errors.Is(err, chaos.ErrInjected) || errors.Is(err, errTorn) {
			t.Fatalf("fault after %d reads: Err = %v, want the injected error", after, err)
		}
		if got >= n || (after == 0) != (got == 0) {
			t.Fatalf("fault after %d reads: %d of %d records came through", after, got, n)
		}
		if it.Next() {
			t.Fatal("Next reports a record after the error")
		}
	}
	if got := scanAll(t, st, ""); len(got) != n {
		t.Fatalf("after the faults the scan yields %d records, want %d", len(got), n)
	}
}
