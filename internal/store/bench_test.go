package store

import (
	"fmt"
	"testing"
)

// benchRecords builds n records of the size tunedb stores per
// evaluation — a ~110-byte key, a ~70-byte value — all on one shard.
func benchRecords(round, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("e|pg0123456789abcdef|westmere-2x6-sig|time+resources|sp0000000000000001|%d,%d,64,8", round, i)
		vals[i] = []byte(fmt.Sprintf(`{"config":[%d,%d,64,8],"objectives":[0.0123456789,0.98765432%d]}`, round, i, i))
	}
	return keys, vals
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(b.TempDir(), Options{Shards: 1, NoBackgroundCompaction: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchmarkStorePut writes a generation of 30 records one Put — one
// frame, one WAL write — at a time.
func BenchmarkStorePut(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		keys, vals := benchRecords(i, 30)
		b.StartTimer()
		for n, key := range keys {
			if err := st.Put(key, vals[n]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStorePutBatch writes the same generation as one PutBatch:
// one lock, one frame, one WAL write.
func BenchmarkStorePutBatch(b *testing.B) {
	st := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		keys, vals := benchRecords(i, 30)
		b.StartTimer()
		if err := st.PutBatch(keys, vals); err != nil {
			b.Fatal(err)
		}
	}
}
