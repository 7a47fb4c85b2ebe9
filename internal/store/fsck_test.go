package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildStore populates a store with enough data for several segments
// per shard plus a live WAL, then closes it cleanly... or leaves the
// WAL dirty when sync-only is wanted; fsck must pass either way.
func buildStore(t *testing.T, dir string) {
	t.Helper()
	st := mustOpen(t, dir, small())
	putN(t, st, 200, 0)
	putN(t, st, 80, 1) // overwrites: dead records in segments
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store fails fsck:\n%s", rep)
	}
	if len(rep.Shards) != 4 {
		t.Fatalf("verdicts for %d shards, want 4", len(rep.Shards))
	}
	segs := 0
	for _, s := range rep.Shards {
		segs += s.Segments
	}
	if segs == 0 {
		t.Fatal("fsck verified no segments")
	}
	if !strings.Contains(rep.String(), "shard 00: ok") {
		t.Fatalf("report misses per-shard verdict:\n%s", rep)
	}
}

// corruptOneSegment flips one byte in the data region of the first
// segment file found and returns its shard id.
func corruptOneSegment(t *testing.T, dir string) int {
	t.Helper()
	for shard := 0; shard < 4; shard++ {
		sdir := filepath.Join(dir, "shard-0"+string(rune('0'+shard)))
		entries, err := os.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !isSegmentFile(e.Name()) {
				continue
			}
			path := filepath.Join(sdir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(segMagic)+12] ^= 0xff // inside the first frame's payload
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return shard
		}
	}
	t.Fatal("no segment file to corrupt")
	return -1
}

func TestFsckDetectsSegmentCorruption(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	shard := corruptOneSegment(t, dir)
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("fsck missed a flipped byte:\n%s", rep)
	}
	if rep.Shards[shard].OK() {
		t.Fatalf("corruption attributed to the wrong shard:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "CORRUPT") {
		t.Fatalf("report misses CORRUPT verdict:\n%s", rep)
	}
}

func TestFsckTornWALTailIsWarningNotCorruption(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Shards: 1})
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch([]string{"a", "b", "c"}, [][]byte{[]byte("1"), []byte("2"), []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: extra garbage after the valid frames.
	// (The store is left open on purpose — fsck is an offline tool and
	// this store is never used again.)
	wal := filepath.Join(dir, "shard-00", walName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("torn tail reported as corruption:\n%s", rep)
	}
	s := rep.Shards[0]
	// Two frames — the Put and the batch — holding four records.
	if s.WALFrames != 2 || s.WALRecords != 4 || s.WALTornBytes != 6 || len(s.Warnings) == 0 {
		t.Fatalf("torn tail not surfaced: %+v", s)
	}
	if !strings.Contains(rep.String(), "2 wal frames, 4 wal records, 6 torn wal bytes") {
		t.Fatalf("report misses the WAL counts:\n%s", rep)
	}
}

func TestFsckDetectsIndexAndCountMismatch(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Shards: 1, indexInterval: 2})
	for i := 0; i < 50; i++ {
		if err := st.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip the first frame's CRC: the footer (and its own CRC) stay
	// valid, so only the full data scan — frame CRCs plus the count
	// cross-check against the footer — can catch it.
	sdir := filepath.Join(dir, "shard-00")
	entries, _ := os.ReadDir(sdir)
	for _, e := range entries {
		if isSegmentFile(e.Name()) {
			path := filepath.Join(sdir, e.Name())
			data, _ := os.ReadFile(path)
			data[len(segMagic)+2] ^= 0x01 // first frame's CRC field
			os.WriteFile(path, data, 0o644)
		}
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("fsck missed frame corruption:\n%s", rep)
	}
}
