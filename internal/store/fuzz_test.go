package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"autotune/internal/chaos"
)

// FuzzWALReplay feeds arbitrary bytes through WAL recovery: replay
// must never panic, must apply only CRC-valid frames — each with all
// of its records or none — and must leave the file truncated to
// exactly the bytes it applied, so a second replay reads an identical
// prefix (recovery is idempotent).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	var valid []byte
	valid = AppendFrame(valid, []string{"key-a"}, [][]byte{[]byte("value-1")})
	valid = AppendFrame(valid, []string{"key-b"}, [][]byte{[]byte("value-2")})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                        // torn tail
	f.Add(append(append([]byte{}, valid...), 0, 1, 2)) // trailing garbage
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})  // oversized length prefix
	// Batch frames: several records under one header, between and
	// after single-record frames, cut inside the batch, and a CRC-valid
	// frame whose last record claims more bytes than the payload holds.
	batch := AppendFrame(nil, []string{"key-c", "key-a", ""}, [][]byte{[]byte("value-3"), nil, []byte("value-4")})
	mixed := append(append(append([]byte{}, valid...), batch...), valid...)
	f.Add(batch)
	f.Add(mixed)
	f.Add(mixed[:len(valid)+len(batch)-5])
	f.Add(mixed[:len(valid)+frameHeader+9])
	short := AppendFrame(nil, []string{"key-d", "key-e"}, [][]byte{[]byte("value-5"), []byte("value-6")})
	binary.LittleEndian.PutUint32(short[len(short)-len("value-6")-4:], 1<<20)
	binary.LittleEndian.PutUint32(short[4:], crc32.Checksum(short[frameHeader:], crcTable))
	f.Add(append(append([]byte{}, valid...), short...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mem := map[string][]byte{}
		n, err := replayWAL(chaos.OS{}, path, mem)
		if err != nil {
			return // clean refusal is fine; panics and hangs are not
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("replay consumed %d of %d bytes", n, len(data))
		}
		if got, err := os.ReadFile(path); err != nil || int64(len(got)) != n {
			t.Fatalf("torn tail not truncated: file %d bytes, applied %d (%v)", len(got), n, err)
		}
		mem2 := map[string][]byte{}
		n2, err := replayWAL(chaos.OS{}, path, mem2)
		if err != nil || n2 != n || len(mem2) != len(mem) {
			t.Fatalf("replay not idempotent: %d/%d keys, %d/%d bytes, %v", len(mem2), len(mem), n2, n, err)
		}
		// The applied prefix re-encodes to itself frame by frame: no
		// frame was applied in part, none was skipped.
		var again []byte
		for rest := data[:n]; len(rest) > 0; {
			recs, flen, err := ParseFrame(rest)
			if err != nil {
				t.Fatalf("applied prefix holds a frame replay should have refused: %v", err)
			}
			var keys []string
			var vals [][]byte
			for _, r := range recs {
				keys, vals = append(keys, r.Key), append(vals, r.Val)
				if _, ok := mem[r.Key]; !ok {
					t.Fatalf("record %q of an applied frame is missing from the memtable", r.Key)
				}
			}
			again = AppendFrame(again, keys, vals)
			rest = rest[flen:]
		}
		if !bytes.Equal(again, data[:n]) {
			t.Fatalf("applied prefix does not re-encode to itself")
		}
	})
}

// FuzzSegmentOpen feeds arbitrary bytes through segment open: a file
// under the final segment name is normally complete (rename protocol),
// but fsck, merge and open must still survive any bytes on disk —
// reject cleanly or serve exactly what validates, never panic or
// over-allocate.
func FuzzSegmentOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	// A real, valid segment as seed: mutations explore its neighborhood.
	dir := f.TempDir()
	opt := small().withDefaults()
	opt.FS = chaos.OS{}
	src := &memSource{mem: map[string][]byte{"a": []byte("1"), "b": []byte("2"), "c": []byte("3")}, keys: []string{"a", "b", "c"}}
	if _, err := writeSegment(dir, 1, 1, src, 3, &opt); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-1])
	// The same records indexed one by one, so the index has entries to
	// disorder; and then disordered: the entry of "c" points back at the
	// first frame, an offset the open accepts, making the block of "b"
	// end before it starts.
	opt.indexInterval = 1
	if _, err := writeSegment(dir, 2, 2, &memSource{mem: src.mem, keys: src.keys}, 3, &opt); err != nil {
		f.Fatal(err)
	}
	seg, err = os.ReadFile(filepath.Join(dir, segName(2, 2)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	indexOff := binary.LittleEndian.Uint64(seg[len(seg)-footerSize+8:])
	bad := bytes.Clone(seg)
	binary.LittleEndian.PutUint64(bad[indexOff+2*(4+1+8)+4+1:], uint64(len(segMagic)))
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1, 1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(chaos.OS{}, path)
		if err != nil {
			return
		}
		defer s.close()
		// The segment opened: every read path must stay panic-free and
		// in-bounds even if interior bytes are damaged.
		for _, k := range []string{"a", "b", "zz", ""} {
			s.get(k)
		}
		it := s.iter("")
		for {
			_, _, ok, err := it.next()
			if !ok || err != nil {
				break
			}
		}
	})
}

// FuzzIterMatchesReference builds a store of several segments and a
// memtable — keys overwritten across them, so the merge has superseded
// versions to drop, values of up to a few KiB with some above the
// 32 KiB chunk, so frames cross chunk edges and some need a buffer of
// their own, a compaction in some cases — and scans it under every kind
// of prefix: none, a group, a whole key, a cut key and one that matches
// nothing. Iter must yield exactly the records of the reference merge,
// in its order, and each must still read intact just before the
// following Next, after a point get in between has read into the pool
// the scan's chunks come from.
func FuzzIterMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40), uint8(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(60), uint8(7), uint8(1))
	f.Add(int64(3), uint8(1), uint8(90), uint8(3), uint8(0))
	f.Add(int64(4), uint8(2), uint8(5), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, segs, perSeg, bigEvery, compact uint8) {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		st := mustOpen(t, dir, Options{Shards: 2, NoBackgroundCompaction: true, indexInterval: 1 + rng.Intn(8)})
		defer st.Close()
		groups := []string{"a/", "ab/", "b/"}
		var keys []string
		for s := 0; s <= 1+int(segs)%4; s++ {
			for i := 0; i < 1+int(perSeg)%100; i++ {
				k := fmt.Sprintf("%s%03d", groups[rng.Intn(len(groups))], rng.Intn(80))
				n := rng.Intn(3000)
				if bigEvery > 0 && rng.Intn(int(bigEvery)) == 0 {
					n = chunkSize + rng.Intn(8<<10)
				}
				v := bytes.Repeat([]byte{byte('a' + s)}, n)
				copy(v, fmt.Sprintf("%d/%d", s, i))
				if err := st.Put(k, v); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
			// The last round of puts stays in the memtable.
			if s <= int(segs)%4 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if compact%2 == 1 {
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		k := keys[rng.Intn(len(keys))]
		for _, prefix := range []string{"", groups[rng.Intn(len(groups))], k, k[:rng.Intn(len(k))], "c/"} {
			want, err := referenceScan(st, prefix)
			if err != nil {
				t.Fatal(err)
			}
			it := st.Iter(prefix)
			i := 0
			for it.Next() {
				key, val := it.Key(), it.Value()
				if i >= len(want) || key != want[i].Key || !bytes.Equal(val, want[i].Val) {
					t.Fatalf("Iter(%q)[%d] = %q (%d bytes), the reference has %d records", prefix, i, key, len(val), len(want))
				}
				if _, _, err := st.Get(keys[rng.Intn(len(keys))]); err != nil {
					t.Fatal(err)
				}
				if key != want[i].Key || !bytes.Equal(val, want[i].Val) {
					t.Fatalf("Iter(%q)[%d] was handed out as %q and reads %q before the following Next", prefix, i, want[i].Key, key)
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			if i != len(want) {
				t.Fatalf("Iter(%q) yields %d records, the reference %d", prefix, i, len(want))
			}
			if prefix != "" {
				continue
			}
			// The scans and the reference seek through the sparse
			// indexes alike; a point get of every key and fsck hold
			// those to the frames they name.
			for _, r := range want {
				if v, ok, err := st.Get(r.Key); err != nil || !ok || !bytes.Equal(v, r.Val) {
					t.Fatalf("Get(%q) = %d bytes, %v, %v; the scan read %d bytes", r.Key, len(v), ok, err, len(r.Val))
				}
			}
		}
		if rep, err := Fsck(dir); err != nil || !rep.OK() {
			t.Fatalf("fsck: %v\n%s", err, rep)
		}
	})
}
