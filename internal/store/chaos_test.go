package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autotune/internal/chaos"
)

// chaosOptions is the sweep configuration: tiny memtables so flushes
// (and their fault windows) happen constantly, and no background
// compaction so each seed's operation sequence is fully deterministic —
// compaction runs through explicit Compact calls inside the sweep.
func chaosOptions(fs chaos.FS) Options {
	opt := small()
	opt.FS = fs
	opt.NoBackgroundCompaction = true
	return opt
}

// runChaosSeed drives one seeded fault schedule end to end and checks
// the sweep invariant: every operation either succeeds or returns a
// clean error, a degraded store recovers once the faults clear, and
// the reopened store holds exactly the successfully acknowledged puts
// (the fault-free shadow model) — nothing lost, nothing resurrected.
// Every fifth write is a PutBatch under the same rule applied to the
// batch as a whole: acknowledged, every record survives; failed, none
// of them took effect.
func runChaosSeed(t *testing.T, dir string, seed int64) {
	t.Helper()
	inj := chaos.NewInjector(nil, chaos.Schedule(seed, 1+int(seed%4), 80)...)
	st, err := Open(dir, chaosOptions(inj))
	if err != nil {
		// A fault during open (mkdir, meta write, WAL create) is a
		// clean failure; the directory must still open faultlessly.
		inj.Clear()
		st, err = Open(dir, chaosOptions(inj))
		if err != nil {
			t.Fatalf("seed %d: open after clearing faults: %v", seed, err)
		}
	}

	// Shadow model: the puts the store acknowledged. A put that errors
	// must NOT take effect; one that returns nil must survive reopen.
	shadow := map[string]string{}
	const keys = 37 // overwrites guaranteed: ops cycle a small key space
	nops := 120 + int(seed%80)
	for i := 0; i < nops; i++ {
		k := key(i % keys)
		v := fmt.Sprintf("seed-%d-op-%d", seed, i)
		batchKeys, batchVals := []string{k}, [][]byte{[]byte(v)}
		if i%5 == 4 {
			// A batch lives on one shard: k plus the keys after it, in
			// cycle order, that hash to k's shard.
			for j := 1; j < keys && len(batchKeys) < 2+i%3; j++ {
				if next := key((i + j) % keys); st.shardFor(next) == st.shardFor(k) {
					batchKeys = append(batchKeys, next)
					batchVals = append(batchVals, []byte(fmt.Sprintf("%s-rec-%d", v, j)))
				}
			}
		}
		var err error
		if len(batchKeys) == 1 {
			err = st.Put(k, batchVals[0])
		} else {
			err = st.PutBatch(batchKeys, batchVals)
		}
		if err == nil {
			for n, bk := range batchKeys {
				shadow[bk] = string(batchVals[n])
			}
		} else if !errors.Is(err, ErrReadOnly) && !strings.Contains(err.Error(), "store:") {
			t.Fatalf("seed %d: put %d: unclean error %v", seed, i, err)
		}
		switch {
		case i%17 == 16:
			st.Sync() // may fail the shard; tolerated
		case i%43 == 42:
			st.Compact() // may degrade the store; tolerated
		}
		// Reads must stay correct on every degradation path.
		if i%11 == 10 {
			probe := key((i / 3) % keys)
			got, ok, err := st.Get(probe)
			if err != nil {
				t.Fatalf("seed %d: get during faults: %v", seed, err)
			}
			if want, exists := shadow[probe]; exists && (!ok || string(got) != want) {
				t.Fatalf("seed %d: get(%s) = %q, %v; want %q", seed, probe, got, ok, want)
			}
		}
	}

	// Fault cleared (space freed, device back): recovery must return
	// the store to full writable service in-place.
	inj.Clear()
	if err := st.Recover(); err != nil {
		t.Fatalf("seed %d: recover after faults cleared: %v", seed, err)
	}
	if h := st.Health(); h.ReadOnly {
		t.Fatalf("seed %d: still read-only after recover: %+v", seed, h)
	}
	for i := 0; i < keys; i++ {
		k := key(i)
		v := fmt.Sprintf("seed-%d-recovered-%d", seed, i)
		if err := st.Put(k, []byte(v)); err != nil {
			t.Fatalf("seed %d: put after recover: %v", seed, err)
		}
		shadow[k] = v
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("seed %d: sync after recover: %v", seed, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("seed %d: close after recover: %v", seed, err)
	}

	// Reopen on the real filesystem and compare against the shadow
	// model in both directions.
	st2 := mustOpen(t, dir, small())
	defer st2.Close()
	seen := 0
	it := st2.Iter("")
	for it.Next() {
		want, ok := shadow[it.Key()]
		if !ok {
			t.Fatalf("seed %d: reopened store resurrected %q (never acknowledged)", seed, it.Key())
		}
		if string(it.Value()) != want {
			t.Fatalf("seed %d: reopened %q = %q, want %q", seed, it.Key(), it.Value(), want)
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("seed %d: reopened iteration: %v", seed, err)
	}
	it.Close()
	if seen != len(shadow) {
		t.Fatalf("seed %d: reopened store holds %d keys, shadow %d", seed, seen, len(shadow))
	}
}

// TestChaosSweepStore runs hundreds of seeded disk-fault schedules
// against the store. Every seed is reproducible: a failure names the
// seed, and re-running with it replays the identical fault script.
func TestChaosSweepStore(t *testing.T) {
	seeds := 240
	if testing.Short() {
		seeds = 40
	}
	root := t.TempDir()
	for seed := 0; seed < seeds; seed++ {
		runChaosSeed(t, filepath.Join(root, fmt.Sprintf("seed-%03d", seed)), int64(seed))
	}
}

// TestFsyncFailureMarksShardFailed pins the fsyncgate rule: a failed
// WAL fsync marks the shard failed/read-only, later syncs do NOT
// silently succeed as if the lost pages had persisted, reads continue,
// and recovery rebuilds the WAL rather than re-trusting it.
func TestFsyncFailureMarksShardFailed(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewInjector(nil, chaos.Fault{Op: chaos.OpSync, Path: walName})
	opt := chaosOptions(inj)
	opt.Shards = 1
	opt.memtableBytes = 1 << 20 // no flushes: everything stays in the WAL
	st := mustOpen(t, dir, opt)

	if err := st.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err == nil {
		t.Fatal("sync with injected fsync fault succeeded")
	}
	h := st.Health()
	if !h.ReadOnly || len(h.FailedShards) != 1 || h.FailedShards[0] != 0 {
		t.Fatalf("health after fsync fault: %+v", h)
	}
	// The fault was one-shot — a bare retry would now "succeed" at the
	// syscall level, which is exactly the fsyncgate trap. The shard
	// must refuse instead.
	if err := st.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("sync retry on failed shard = %v, want ErrReadOnly", err)
	}
	if err := st.Put("b", []byte("2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("put on failed shard = %v, want ErrReadOnly", err)
	}
	if v, ok, err := st.Get("a"); err != nil || !ok || string(v) != "1" {
		t.Fatalf("read on failed shard: %q %v %v", v, ok, err)
	}
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ReadOnly || stats.Shards[0].Failed == "" {
		t.Fatalf("stats do not surface the failure: %+v", stats)
	}

	if err := st.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if h := st.Health(); h.ReadOnly {
		t.Fatalf("still read-only after recover: %+v", h)
	}
	if err := st.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, small())
	defer st2.Close()
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok, err := st2.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("after recovery reopen, %s = %q %v %v", k, v, ok, err)
		}
	}
}

// TestENOSPCFlushDegradesStore: running out of space while writing a
// segment degrades the whole store to read-only, cleans up the partial
// temp file, keeps serving reads, and loses nothing — the puts that
// were acknowledged are all present after reopen.
func TestENOSPCFlushDegradesStore(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewInjector(nil, chaos.Fault{Op: chaos.OpWrite, Path: segSuffix + tmpSuffix, Err: chaos.ENOSPC, TornBytes: 7})
	opt := chaosOptions(inj)
	opt.Shards = 1
	st := mustOpen(t, dir, opt)

	acked := map[string]string{}
	degradedAt := -1
	for i := 0; i < 200; i++ {
		k, v := key(i), fmt.Sprintf("v-%d", i)
		err := st.Put(k, []byte(v))
		if err == nil {
			acked[k] = v
		} else if !errors.Is(err, ErrReadOnly) {
			t.Fatalf("put %d: %v", i, err)
		}
		if st.Health().ReadOnly && degradedAt < 0 {
			degradedAt = i
		}
	}
	if degradedAt < 0 {
		t.Fatal("ENOSPC fault never degraded the store (no flush happened?)")
	}
	h := st.Health()
	if !h.ReadOnly || !strings.Contains(h.Reason, "no space left") {
		t.Fatalf("health: %+v", h)
	}
	// Partial segment artifacts must not linger.
	entries, err := os.ReadDir(filepath.Join(dir, "shard-00"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("partial segment artifact left behind: %s", e.Name())
		}
	}
	// Reads keep working while degraded.
	for k, want := range acked {
		if v, ok, err := st.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("degraded read %s = %q %v %v", k, v, ok, err)
		}
	}
	st.Close()

	st2 := mustOpen(t, dir, small())
	defer st2.Close()
	for k, want := range acked {
		if v, ok, err := st2.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("reopened %s = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
}

// TestInjectorDeterminism: the same seed yields the same fault script,
// so a failing sweep seed reproduces exactly.
func TestInjectorDeterminism(t *testing.T) {
	a := chaos.Schedule(7, 5, 50)
	b := chaos.Schedule(7, 5, 50)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].After != b[i].After || a[i].TornBytes != b[i].TornBytes ||
			fmt.Sprint(a[i].Err) != fmt.Sprint(b[i].Err) {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
