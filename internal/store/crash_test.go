package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyDir snapshots a directory tree, simulating what a crash at this
// instant would leave on disk.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALTruncateSweep cuts a shard WAL holding single-record (Put) and
// multi-record (PutBatch) frames at every byte offset: each cut must
// open cleanly, recover exactly the complete frames before the cut — a
// batch whole or not at all — and stay writable afterwards.
func TestWALTruncateSweep(t *testing.T) {
	opt := small()
	opt.Shards = 1
	opt.memtableBytes = 1 << 20 // never flush: everything stays in the WAL

	refDir := t.TempDir()
	st := mustOpen(t, refDir, opt)
	// Key indices per frame, in append order.
	frames := [][]int{{0}, {1, 2, 3}, {4}, {5, 6}, {7, 8, 9, 10}, {11}}
	var frameLens []int
	for _, frame := range frames {
		var keys []string
		var vals [][]byte
		for _, i := range frame {
			keys, vals = append(keys, key(i)), append(vals, val(i, 0))
		}
		frameLens = append(frameLens, frameSize(keys, vals))
		var err error
		if len(frame) == 1 {
			err = st.Put(keys[0], vals[0])
		} else {
			err = st.PutBatch(keys, vals)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(refDir, "shard-00", walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A crash never truncates the store's own files, so snapshot the
	// directory instead of closing (Close would flush the memtable).
	ref := t.TempDir()
	copyDir(t, refDir, ref)
	st.Close()

	total := 0
	for _, l := range frameLens {
		total += l
	}
	if total != len(data) {
		t.Fatalf("wal is %d bytes, frames sum to %d: a batch was not one frame", len(data), total)
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		copyDir(t, ref, dir)
		if err := os.Truncate(filepath.Join(dir, "shard-00", walName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		// Complete frames before the cut survive; the torn one is gone
		// with every record it held.
		wantFrames := 0
		for sum := 0; wantFrames < len(frames) && sum+frameLens[wantFrames] <= cut; wantFrames++ {
			sum += frameLens[wantFrames]
		}
		st2, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("cut at byte %d/%d: %v", cut, len(data), err)
		}
		for f, frame := range frames {
			for _, i := range frame {
				v, ok, err := st2.Get(key(i))
				if f < wantFrames && (err != nil || !ok || string(v) != string(val(i, 0))) {
					t.Fatalf("cut at %d: key %d of complete frame %d lost (%q %v %v)", cut, i, f, v, ok, err)
				}
				if f >= wantFrames && ok {
					t.Fatalf("cut at %d: key %d of torn frame %d resurrected", cut, i, f)
				}
			}
		}
		// The store stays writable and durable after recovery.
		if err := st2.Put("post-crash", []byte("ok")); err != nil {
			t.Fatalf("cut at %d: post-recovery put: %v", cut, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		st3, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if v, ok, _ := st3.Get("post-crash"); !ok || string(v) != "ok" {
			t.Fatalf("cut at %d: post-recovery key lost", cut)
		}
		st3.Close()
	}
}

// TestSegmentTruncateSweep cuts a segment file at every byte offset.
// Segments only reach their final name complete (temp file + fsync +
// rename), so a damaged one cannot be a crash artifact: every cut must
// produce a clean open error naming the segment — never a panic and
// never silent data loss.
func TestSegmentTruncateSweep(t *testing.T) {
	opt := small()
	opt.Shards = 1
	refDir := t.TempDir()
	st := mustOpen(t, refDir, opt)
	for i := 0; i < 20; i++ {
		if err := st.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // flushes: one segment, empty WAL
		t.Fatal(err)
	}
	shardDir := filepath.Join(refDir, "shard-00")
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var segPath string
	for _, e := range entries {
		if isSegmentFile(e.Name()) {
			segPath = filepath.Join(shardDir, e.Name())
		}
	}
	if segPath == "" {
		t.Fatal("no segment written")
	}
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(data); cut++ {
		dir := t.TempDir()
		copyDir(t, refDir, dir)
		rel, _ := filepath.Rel(refDir, segPath)
		if err := os.Truncate(filepath.Join(dir, rel), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, opt)
		if err == nil {
			st2.Close()
			t.Fatalf("cut at byte %d/%d: truncated segment opened without error", cut, len(data))
		}
		if !strings.Contains(err.Error(), "segment") {
			t.Fatalf("cut at %d: error does not name the segment: %v", cut, err)
		}
	}
	// The untouched file still opens.
	st3, err := Open(refDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if v, ok, _ := st3.Get(key(7)); !ok || string(v) != string(val(7, 0)) {
		t.Fatal("reference store damaged")
	}
}

// TestKillDuringCompactionSweep snapshots the directory at every stage
// of a compaction — mid-merge, after the output's rename but before the
// inputs are deleted, and after the swap — and reopens each snapshot:
// the data must be identical at every kill point (interval containment
// heals the rename/delete window).
func TestKillDuringCompactionSweep(t *testing.T) {
	for _, stage := range []string{"merge-start", "post-rename", "post-swap"} {
		t.Run(stage, func(t *testing.T) {
			opt := small()
			opt.Shards = 1
			opt.NoBackgroundCompaction = true
			snapshot := t.TempDir()
			dir := t.TempDir()
			taken := false
			opt.compactGate = func(s string) {
				if s == stage && !taken {
					taken = true
					copyDir(t, dir, snapshot)
				}
			}
			st := mustOpen(t, dir, opt)
			const n = 150
			for i := 0; i < n; i++ {
				if err := st.Put(key(i), val(i, 0)); err != nil {
					t.Fatal(err)
				}
			}
			// Several segments plus superseding writes: compaction has
			// real dead records to drop.
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 2 {
				st.Put(key(i), val(i, 1))
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if !taken {
				t.Fatalf("stage %s never reached", stage)
			}
			st.Close()

			check := func(label, d string) {
				t.Helper()
				opt2 := small()
				opt2.Shards = 1
				st2, err := Open(d, opt2)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				defer st2.Close()
				for i := 0; i < n; i++ {
					gen := 0
					if i%2 == 0 {
						gen = 1
					}
					v, ok, err := st2.Get(key(i))
					if err != nil || !ok || string(v) != string(val(i, gen)) {
						t.Fatalf("%s: key %d = %q %v %v", label, i, v, ok, err)
					}
				}
				stats, err := st2.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if stats.LiveKeys != n {
					t.Fatalf("%s: live keys = %d, want %d", label, stats.LiveKeys, n)
				}
			}
			check("kill at "+stage, snapshot)
			check("completed compaction", dir)
		})
	}
}

// TestFlushCrashBeforeWALTruncate simulates a crash after the flushed
// segment reached its final name but before the WAL shrank: replaying
// the stale WAL over the segment is harmless (same values win).
func TestFlushCrashBeforeWALTruncate(t *testing.T) {
	opt := small()
	opt.Shards = 1
	opt.memtableBytes = 1 << 20
	dir := t.TempDir()
	st := mustOpen(t, dir, opt)
	const n = 25
	for i := 0; i < n; i++ {
		if err := st.Put(key(i), val(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "shard-00", walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Resurrect the pre-flush WAL, as if the truncate never hit disk.
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, opt)
	defer st2.Close()
	stats, err := st2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.LiveKeys != n {
		t.Fatalf("live keys = %d, want %d", stats.LiveKeys, n)
	}
	for i := 0; i < n; i++ {
		if v, ok, _ := st2.Get(key(i)); !ok || string(v) != string(val(i, 0)) {
			t.Fatalf("key %d wrong after WAL resurrection: %q %v", i, v, ok)
		}
	}
}

// TestStaleTempFilesRemoved: a crash mid-segment-write leaves a .tmp
// file; open removes it and proceeds.
func TestStaleTempFilesRemoved(t *testing.T) {
	opt := small()
	opt.Shards = 1
	dir := t.TempDir()
	st := mustOpen(t, dir, opt)
	st.Put("a", []byte("1"))
	st.Close()
	tmp := filepath.Join(dir, "shard-00", segName(99, 99)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial segment junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, opt)
	defer st2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived open: %v", err)
	}
	if v, ok, _ := st2.Get("a"); !ok || string(v) != "1" {
		t.Fatal("data lost alongside temp cleanup")
	}
}

// TestCompactionDropsDeadAndShrinksDisk: superseded versions disappear
// from disk after Compact.
func TestCompactionDropsDeadAndShrinksDisk(t *testing.T) {
	opt := small()
	opt.Shards = 1
	st := mustOpen(t, t.TempDir(), opt)
	defer st.Close()
	for gen := 0; gen < 6; gen++ {
		for i := 0; i < 40; i++ {
			if err := st.Put(key(i), val(i, gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.DeadRecords == 0 {
		t.Fatalf("no dead records staged: %+v", before)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.DeadRecords != 0 || after.LiveKeys != 40 || after.Segments != 1 {
		t.Fatalf("compaction left %+v", after)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("disk did not shrink: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	for i := 0; i < 40; i++ {
		if v, ok, _ := st.Get(key(i)); !ok || string(v) != string(val(i, 5)) {
			t.Fatalf("key %d lost newest gen: %q %v", i, v, ok)
		}
	}
}

// TestBackgroundCompactionBoundsSegments: with auto-compaction on,
// sustained writes keep the per-shard segment count bounded.
func TestBackgroundCompactionBoundsSegments(t *testing.T) {
	opt := small()
	opt.Shards = 1
	opt.compactFanin = 3
	st := mustOpen(t, t.TempDir(), opt)
	for i := 0; i < 3000; i++ {
		if err := st.Put(fmt.Sprintf("k-%05d", i), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // waits for background merges
		t.Fatal(err)
	}
}
