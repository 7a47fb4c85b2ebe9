package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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
