package store

import "sync/atomic"

// ShardStats describes one shard's physical and logical state.
type ShardStats struct {
	Shard            int     `json:"shard"`
	Segments         int     `json:"segments"`
	SegmentRecords   uint64  `json:"segment_records"`
	MemtableEntries  int     `json:"memtable_entries"`
	WALBytes         int64   `json:"wal_bytes"`
	DiskBytes        int64   `json:"disk_bytes"`
	LiveKeys         uint64  `json:"live_keys"`
	DeadRecords      uint64  `json:"dead_records"`
	BloomFPREstimate float64 `json:"bloom_fpr_estimate"`
	// Measured bloom effectiveness over this session's point lookups:
	// Filtered lookups were proven absent without touching the
	// segment; FalsePositives passed the filter but missed.
	BloomFiltered       uint64 `json:"bloom_filtered"`
	BloomFalsePositives uint64 `json:"bloom_false_positives"`
	// Failed carries the fault that made the shard read-only (empty on
	// healthy shards).
	Failed string `json:"failed,omitempty"`
}

// Stats aggregates ShardStats.
type Stats struct {
	Shards []ShardStats `json:"shards"`

	Segments        int    `json:"segments"`
	SegmentRecords  uint64 `json:"segment_records"`
	MemtableEntries int    `json:"memtable_entries"`
	LiveKeys        uint64 `json:"live_keys"`
	DeadRecords     uint64 `json:"dead_records"`
	DiskBytes       int64  `json:"disk_bytes"`

	// ReadOnly and DegradedReason mirror Health: set when the store (or
	// any shard) refuses writes after an I/O fault.
	ReadOnly       bool   `json:"read_only,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Stats walks every shard, counting live keys via a merged iteration
// (so dead = stored - live is exact at the time of the call).
func (st *Store) Stats() (Stats, error) {
	var out Stats
	for _, sh := range st.shards {
		ss := ShardStats{Shard: sh.id}
		memKeys, memVals, segs := sh.snapshot("")
		var streams []stream
		var fprSum float64
		for _, s := range segs {
			streams = append(streams, s.iter(""))
			ss.SegmentRecords += s.count
			ss.DiskBytes += s.size
			fprSum += s.filter.estimatedFPR(s.count)
		}
		streams = append(streams, &memStream{keys: memKeys, vals: memVals})
		ss.Segments = len(segs)
		if len(segs) > 0 {
			ss.BloomFPREstimate = fprSum / float64(len(segs))
		}
		ss.MemtableEntries = len(memKeys)
		sh.mu.RLock()
		ss.WALBytes = sh.walBytes
		if sh.failErr != nil {
			ss.Failed = sh.failErr.Error()
		}
		sh.mu.RUnlock()
		ss.DiskBytes += ss.WALBytes
		it := newMergedIterator(streams, "", func() { sh.release(segs) })
		for it.Next() {
			ss.LiveKeys++
		}
		err := it.Err()
		it.Close()
		if err != nil {
			return Stats{}, err
		}
		ss.DeadRecords = ss.SegmentRecords + uint64(ss.MemtableEntries) - ss.LiveKeys
		ss.BloomFiltered = atomic.LoadUint64(&sh.bloomFiltered)
		ss.BloomFalsePositives = atomic.LoadUint64(&sh.bloomFalsePos)
		out.Shards = append(out.Shards, ss)
		out.Segments += ss.Segments
		out.SegmentRecords += ss.SegmentRecords
		out.MemtableEntries += ss.MemtableEntries
		out.LiveKeys += ss.LiveKeys
		out.DeadRecords += ss.DeadRecords
		out.DiskBytes += ss.DiskBytes
	}
	h := st.Health()
	out.ReadOnly = h.ReadOnly
	out.DegradedReason = h.Reason
	return out, nil
}
