package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"autotune/internal/chaos"
	"autotune/internal/israce"
)

// The read paths cutFrame, frameReader and segment.get replaced, kept
// as the references they are held to: a frame read from a buffered
// reader into a payload of its own, and a point get that walks its
// block through a 4 KiB buffered reader that way.

// readFrameAt decodes one single-record frame — the only kind a
// segment holds — from r at the current position. It returns io.EOF
// cleanly at end of stream, errTorn on a damaged or cut-off frame and
// the reader's own error when the read itself failed. val lies inside a
// buffer allocated for this frame alone: the caller owns it.
func readFrameAt(r *bufio.Reader) (key string, val []byte, frameLen int, err error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return "", nil, 0, io.EOF
		}
		return "", nil, 0, shortRead(err)
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr))
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if payloadLen < 8 || payloadLen > maxFrame {
		return "", nil, 0, errTorn
	}
	r.Discard(frameHeader)
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return "", nil, 0, shortRead(err)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return "", nil, 0, errTorn
	}
	k, v, rest, ok := splitRecord(payload)
	if !ok || len(rest) != 0 {
		return "", nil, 0, errTorn
	}
	return string(k), v, frameHeader + payloadLen, nil
}

// shortRead names the failure of a read that ended inside a frame: the
// data running out is a torn frame, anything else is the I/O error it
// is.
func shortRead(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTorn
	}
	return fmt.Errorf("read: %w", err)
}

// referenceGet is segment.get as it was: from the last index entry at
// or before key to the end of the data, frame by frame, until a key at
// or past key.
func referenceGet(s *segment, key string) ([]byte, bool, error) {
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > key })
	if i == 0 {
		return nil, false, nil
	}
	off := s.index[i-1].off
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, off, s.dataEnd-off), 4096)
	for {
		k, v, _, err := readFrameAt(r)
		if err == io.EOF {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("store: segment %s: %w", filepath.Base(s.path), err)
		}
		if k == key {
			return v, true, nil
		}
		if k > key {
			return nil, false, nil
		}
	}
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

// TestSegmentGetAllocationBudget: a point get that the bloom filter
// sends to a segment allocates a constant, wherever in its index block
// the key sits, and so does a bloom false positive, which walks the
// block to its end; in bytes, a hit allocates its value and a constant,
// a false positive the constant. A get that read its block frame by
// frame through a buffered reader allocated a payload and a key per
// frame walked: 31 times for a key in the middle of a 32-record block;
// one that read its block into a buffer of its own allocated the block,
// 5,376 bytes for a block of these records.
func TestSegmentGetAllocationBudget(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := mustOpen(t, t.TempDir(), Options{Shards: 1, NoBackgroundCompaction: true})
	defer st.Close()
	keys, vals := benchRecords(0, 256)
	if err := st.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i, k := range keys {
		want[k] = vals[i]
	}
	sort.Strings(keys)
	const budget, byteBudget = 3, 256
	get := func(key string, found bool) (allocs, allocBytes float64) {
		check := func() {
			v, ok, err := st.Get(key)
			if err != nil || ok != found || found && !bytes.Equal(v, want[key]) {
				t.Fatalf("Get(%q) = %q, %v, %v", key, v, ok, err)
			}
		}
		return testing.AllocsPerRun(20, check), bytesPerRun(20, check)
	}
	// Every position of the second block (index interval 32).
	for pos := 0; pos < 32; pos++ {
		key := keys[32+pos]
		allocs, allocBytes := get(key, true)
		if allocs > budget {
			t.Errorf("a hit at position %d of its block allocates %.0f times, budget %d", pos, allocs, budget)
		}
		if limit := len(want[key]) + byteBudget; allocBytes > float64(limit) {
			t.Errorf("a hit at position %d of its block allocates %.0f bytes, budget %d (its %d-byte value and %d)", pos, allocBytes, limit, len(want[key]), byteBudget)
		}
	}

	// A key the filter admits but the segment does not hold, sorting
	// behind a stored one: the get walks that key's block.
	sh := st.shards[0]
	seg := sh.segs[0]
	var fp string
	for i := 0; fp == "" && i < len(keys)-1; i++ {
		for _, suffix := range []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a", "b", "c", "d", "e", "f"} {
			if k := keys[i] + suffix; seg.filter.test(hashKey(k)) {
				fp = k
				break
			}
		}
	}
	if fp == "" {
		t.Fatal("no bloom false positive among the candidates")
	}
	before := sh.bloomFalsePos
	allocs, allocBytes := get(fp, false)
	if sh.bloomFalsePos == before {
		t.Fatalf("%q is no bloom false positive", fp)
	}
	if allocs > budget {
		t.Errorf("a bloom false positive allocates %.0f times, budget %d", allocs, budget)
	}
	if allocBytes > byteBudget {
		t.Errorf("a bloom false positive allocates %.0f bytes, budget %d", allocBytes, byteBudget)
	}
}

// TestGetValuesKeepNoBlock: a value Get returns is a copy of its own,
// not a view of the block the get read it from, so holding on to values
// holds on to nothing else. Holding 400 values of 16 bytes, each read by
// a get of its own from a segment, keeps a few KiB alive, not the 400
// index blocks of some 3 KiB they were read in.
func TestGetValuesKeepNoBlock(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{Shards: 1, NoBackgroundCompaction: true})
	defer st.Close()
	const n = 400
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d|%s", i, strings.Repeat("x", 56))
		vals[i] = []byte(fmt.Sprintf("value %09d", i))
	}
	if err := st.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		// Twice: the second collection empties the victim cache of
		// the sync.Pools the first one moved there.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	got := make([][]byte, 0, n)
	before := live()
	for _, k := range keys {
		v, ok, err := st.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%q): %v, %v", k, ok, err)
		}
		got = append(got, v)
	}
	kept := live() - before
	for i, v := range got {
		if !bytes.Equal(v, vals[i]) {
			t.Fatalf("value %d = %q, want %q", i, v, vals[i])
		}
	}
	runtime.KeepAlive(got)
	if kept > 32<<10 {
		t.Errorf("holding %d values of 16 bytes keeps %d KiB alive, want at most 32", n, kept>>10)
	}
}

// FuzzSegmentGetMatchesReference holds segment.get to referenceGet and
// a segment scan to the readFrameAt one over a segment of n records
// written at index interval every, with one byte of its data section
// XORed with flip at flipAt and the file then cut at cutAt — each
// damage applied after the segment opened, so the index and the bloom
// filter are intact and the reads meet the damage. Probed with every
// stored key, a key behind each, one before all and one after all, the
// two gets agree on the value, on ok and on whether there is an error.
// One difference is by design: a get reads its own block and no frame
// behind it, so for an absent key that sorts behind the last key of a
// block that has a successor, a reference error from that successor's
// first frame is a clean miss here. The scans agree on every record
// and on whether they end in an error.
func FuzzSegmentGetMatchesReference(f *testing.F) {
	f.Add(uint16(100), uint8(4), uint8(10), uint32(0), uint8(0), uint32(0))
	f.Add(uint16(100), uint8(4), uint8(10), uint32(500), uint8(1), uint32(0))
	// The first frame of the second block damaged: the designed
	// difference, for the probe behind the first block.
	f.Add(uint16(100), uint8(4), uint8(10), uint32(170), uint8(1), uint32(0))
	f.Add(uint16(100), uint8(4), uint8(10), uint32(0), uint8(0), uint32(2000))
	f.Add(uint16(300), uint8(32), uint8(200), uint32(3), uint8(0x80), uint32(0))
	f.Add(uint16(1), uint8(1), uint8(0), uint32(9), uint8(4), uint32(17))
	f.Fuzz(func(t *testing.T, n uint16, every, valLen uint8, flipAt uint32, flip uint8, cutAt uint32) {
		n = 1 + n%400
		interval := 1 + int(every)%40
		keys := make([]string, n)
		mem := map[string][]byte{}
		for i := range keys {
			keys[i] = fmt.Sprintf("k%05d", 3*i)
			mem[keys[i]] = bytes.Repeat([]byte{byte('a' + i%26)}, int(valLen)+i%7)
		}
		dir := t.TempDir()
		opt := Options{indexInterval: interval}.withDefaults()
		opt.FS = chaos.OS{}
		if _, err := writeSegment(dir, 1, 1, &memSource{mem: mem, keys: keys}, len(keys), &opt); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segName(1, 1))
		s, err := openSegment(chaos.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		data := s.dataEnd - int64(len(segMagic))
		if flip != 0 {
			at := int64(len(segMagic)) + int64(flipAt)%data
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[at] ^= flip
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if cutAt != 0 {
			if err := os.Truncate(path, int64(len(segMagic))+int64(cutAt)%data); err != nil {
				t.Fatal(err)
			}
		}

		probes := []string{"a", "z"}
		behindBlock := map[string]bool{}
		for i, k := range keys {
			probes = append(probes, k, k+"x")
			behindBlock[k+"x"] = i%interval == interval-1 && i < len(keys)-1
		}
		for _, p := range probes {
			v, ok, err := s.get(p)
			wantV, wantOK, wantErr := referenceGet(s, p)
			if ok == wantOK && bytes.Equal(v, wantV) && (err != nil) == (wantErr != nil) {
				continue
			}
			if behindBlock[p] && wantErr != nil && !ok && v == nil && err == nil {
				continue
			}
			t.Fatalf("get(%q) = %q, %v, %v; the reference gives %q, %v, %v", p, v, ok, err, wantV, wantOK, wantErr)
		}

		scan := func(st stream) (recs []Record, err error) {
			for {
				k, v, ok, err := st.next()
				if err != nil || !ok {
					return recs, err
				}
				recs = append(recs, Record{strings.Clone(k), bytes.Clone(v)})
			}
		}
		got, err := scan(s.iter(""))
		want, wantErr := scan(&refSegStream{r: bufio.NewReaderSize(io.NewSectionReader(s.f, int64(len(segMagic)), data), 1<<16)})
		if (err != nil) != (wantErr != nil) || !slices.EqualFunc(got, want, func(a, b Record) bool { return a.Key == b.Key && bytes.Equal(a.Val, b.Val) }) {
			t.Fatalf("the scan yields %d records and %v; the reference %d and %v", len(got), err, len(want), wantErr)
		}
	})
}

// benchGetSegment flushes 4,096 records of tunedb's size to one
// segment and returns it with its keys in order.
func benchGetSegment(b *testing.B) (*segment, []string) {
	st := benchStore(b)
	keys, vals := benchRecords(0, 4096)
	if err := st.PutBatch(keys, vals); err != nil {
		b.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	sort.Strings(keys)
	return st.shards[0].segs[0], keys
}

// BenchmarkSegmentGet point-looks up every stored key of a segment in
// turn, a hit at every position of its block.
func BenchmarkSegmentGet(b *testing.B) {
	s, keys := benchGetSegment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.get(keys[i%len(keys)]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkSegmentGetReference(b *testing.B) {
	s, keys := benchGetSegment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := referenceGet(s, keys[i%len(keys)]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
