package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"autotune/internal/testenv"
)

// TestIterMatchesSortedKeys is the order property test: for random
// workloads (random keys, overwrites, interleaved flushes), Iter("")
// must yield exactly the distinct key set in sorted order with the
// newest value for every key.
func TestIterMatchesSortedKeys(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		dir := t.TempDir()
		opt := small()
		st := mustOpen(t, dir, opt)
		want := map[string]string{}
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k-%03d", rng.Intn(150)) // collisions: overwrites
			v := fmt.Sprintf("v-%d-%d", trial, i)
			want[k] = v
			if err := st.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(50) == 0 {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var wantKeys []string
		for k := range want {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)

		check := func(label string) {
			t.Helper()
			it := st.Iter("")
			defer it.Close()
			var got []string
			for it.Next() {
				got = append(got, strings.Clone(it.Key()))
				if string(it.Value()) != want[it.Key()] {
					t.Fatalf("%s: value for %q = %q, want %q", label, it.Key(), it.Value(), want[it.Key()])
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantKeys) {
				t.Fatalf("%s: iterated %d keys, want %d", label, len(got), len(wantKeys))
			}
			for i := range got {
				if got[i] != wantKeys[i] {
					t.Fatalf("%s: key[%d] = %q, want %q", label, i, got[i], wantKeys[i])
				}
			}
		}
		check("live")
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		check("compacted")
		st.Close()

		st = mustOpen(t, dir, opt)
		check("reopened")
		st.Close()
	}
}

func TestIterPrefix(t *testing.T) {
	st := mustOpen(t, t.TempDir(), small())
	defer st.Close()
	for i := 0; i < 30; i++ {
		st.Put(fmt.Sprintf("alpha/%02d", i), []byte("a"))
		st.Put(fmt.Sprintf("beta/%02d", i), []byte("b"))
		st.Put(fmt.Sprintf("gamma/%02d", i), []byte("g"))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	it := st.Iter("beta/")
	defer it.Close()
	count := 0
	for it.Next() {
		if string(it.Value()) != "b" {
			t.Fatalf("prefix scan leaked key %q", it.Key())
		}
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != 30 {
		t.Fatalf("prefix scan found %d keys, want 30", count)
	}
	// A prefix with no matches.
	it2 := st.Iter("delta/")
	defer it2.Close()
	if it2.Next() {
		t.Fatalf("empty prefix scan returned %q", it2.Key())
	}
}

// TestIterSnapshotIsolation: an iterator opened before writes and a
// compaction must not see them, and must stay readable while the
// underlying segments are superseded and unlinked.
func TestIterSnapshotIsolation(t *testing.T) {
	opt := small()
	opt.Shards = 1
	st := mustOpen(t, t.TempDir(), opt)
	defer st.Close()
	for i := 0; i < 100; i++ {
		st.Put(key(i), val(i, 0))
		if i%20 == 19 {
			st.Flush()
		}
	}
	it := st.Iter("")
	defer it.Close()

	// Supersede everything and compact away the old segments.
	for i := 0; i < 100; i++ {
		st.Put(key(i), val(i, 1))
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}

	seen := 0
	for it.Next() {
		if string(it.Value()) != string(val(seen, 0)) {
			t.Fatalf("snapshot iterator saw new value %q for %s", it.Value(), it.Key())
		}
		seen++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if seen != 100 {
		t.Fatalf("snapshot iterator saw %d keys, want 100", seen)
	}
}

// TestScanAllocationBudget: a full scan reads its segments into two
// recycled chunks a segment, so what it allocates is bounded and the
// same for a segment of 1 MiB and of 4 MiB — the iterator, its merge
// heap and its snapshot — not a share of the bytes it reads. A scan that
// read every chunk into a buffer of its own allocated what it read:
// 1,058 KiB and 4,229 KiB.
func TestScanAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates, and its sync.Pool drops what it is given")
	}
	const budget = 8 << 10
	for _, mib := range []int{1, 4} {
		st := mustOpen(t, t.TempDir(), Options{Shards: 1, NoBackgroundCompaction: true, memtableBytes: 8 << 20})
		n := mib << 20 / 1024
		for i := 0; i < n; i++ {
			if err := st.Put(key(i), bytes.Repeat([]byte{byte('a' + i%26)}, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if segs := len(st.shards[0].segs); segs != 1 {
			t.Fatalf("%d MiB: %d segments, want one", mib, segs)
		}
		perScan := bytesPerRun(10, func() {
			it := st.Iter("")
			got := 0
			for it.Next() {
				got++
			}
			if err := it.Err(); err != nil || got != n {
				t.Fatalf("%d MiB: the scan yields %d of %d records: %v", mib, got, n, err)
			}
			it.Close()
		})
		if perScan > budget {
			t.Errorf("a full scan of a %d MiB segment allocates %.0f bytes, budget %d", mib, perScan, budget)
		}
		t.Logf("%d MiB: %.0f bytes a scan", mib, perScan)
		st.Close()
	}
}
