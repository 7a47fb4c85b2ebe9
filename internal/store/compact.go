package store

import (
	"fmt"
	"math/bits"
	"path/filepath"
)

// Size-tiered compaction: segments of similar size (same power-of-four
// tier) accumulate as memtables flush; once a contiguous run of the
// recency-ordered segment list shares a tier and reaches the configured
// fan-in, the run is merged into one segment covering the union of the
// inputs' sequence intervals, with superseded versions of a key dropped
// (newest input wins). Only contiguous runs are merged so that recency
// resolution against segments outside the run stays correct.

// tierOf buckets a segment by size: each tier spans 4x the previous.
func tierOf(size int64) int {
	if size < 0 {
		size = 0
	}
	return (bits.Len64(uint64(size)/4096+1) + 1) / 2
}

// pickRun finds the first contiguous run of >= fanin same-tier
// segments, oldest first. It returns lo > hi when nothing qualifies.
func pickRun(segs []*segment, fanin int) (lo, hi int) {
	runStart := 0
	for i := 1; i <= len(segs); i++ {
		if i == len(segs) || tierOf(segs[i].size) != tierOf(segs[runStart].size) {
			if i-runStart >= fanin {
				return runStart, i - 1
			}
			runStart = i
		}
	}
	return 1, 0
}

// compactRun merges one run of segments (the whole list when all is
// set). It reports whether a merge happened. The shard's compactMu
// serializes concurrent compactions; readers and writers proceed
// untouched during the merge and only wait for the brief list swap.
func (sh *shard) compactRun(all bool) (bool, error) {
	sh.compactMu.Lock()
	defer sh.compactMu.Unlock()

	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false, nil
	}
	var lo, hi int
	if all {
		lo, hi = 0, len(sh.segs)-1
		if hi-lo < 1 {
			sh.mu.Unlock()
			return false, nil
		}
	} else {
		lo, hi = pickRun(sh.segs, sh.st.opt.compactFanin)
		if lo > hi {
			sh.mu.Unlock()
			return false, nil
		}
	}
	inputs := append([]*segment(nil), sh.segs[lo:hi+1]...)
	for _, s := range inputs {
		s.refs++
	}
	sh.mu.Unlock()

	sh.st.gate("merge-start")
	streams := make([]stream, len(inputs))
	var approx int
	for i, s := range inputs {
		streams[i] = s.iter("")
		approx += int(s.count)
	}
	merged := newMergedIterator(streams, "", nil)
	defer merged.Close()
	seqMin, seqMax := inputs[0].seqMin, inputs[len(inputs)-1].seqMax
	_, err := writeSegment(sh.dir, seqMin, seqMax, iterSource{merged}, approx, &sh.st.opt)
	if err == nil {
		err = merged.Err()
	}
	if err != nil {
		sh.release(inputs)
		return false, err
	}
	out, err := openSegment(sh.st.fs, filepath.Join(sh.dir, segName(seqMin, seqMax)))
	if err != nil {
		sh.release(inputs)
		return false, err
	}
	sh.st.gate("post-rename")

	// Swap: replace the input run with the merged output in place.
	sh.mu.Lock()
	pos := -1
	for i, s := range sh.segs {
		if s == inputs[0] {
			pos = i
			break
		}
	}
	if sh.closed || pos < 0 {
		// The shard closed under us: abandon the merge. The output
		// supersedes its inputs by interval containment, so leaving it
		// on disk would also be correct, but removing it keeps close
		// deterministic.
		sh.mu.Unlock()
		out.close()
		sh.st.fs.Remove(out.path)
		sh.release(inputs)
		return false, nil
	}
	newSegs := make([]*segment, 0, len(sh.segs)-len(inputs)+1)
	newSegs = append(newSegs, sh.segs[:pos]...)
	newSegs = append(newSegs, out)
	newSegs = append(newSegs, sh.segs[pos+len(inputs):]...)
	sh.segs = newSegs
	for _, s := range inputs {
		s.dead = true
	}
	sh.mu.Unlock()
	sh.release(inputs) // drops our refs; unlinks inputs nobody else holds
	if err := sh.st.fs.SyncDir(sh.dir); err != nil {
		return true, err
	}
	sh.st.gate("post-swap")
	return true, nil
}

// iterSource adapts a merged iterator to the segment writer's source.
type iterSource struct{ it *Iterator }

func (s iterSource) next() (string, []byte, bool, error) {
	if !s.it.Next() {
		return "", nil, false, s.it.Err()
	}
	return s.it.Key(), s.it.Value(), true, nil
}

// maybeCompact runs background compaction until no run qualifies. A
// compaction fault degrades the store to read-only: partial outputs
// are already cleaned up and no input was removed, so reads stay
// correct, but the write path has proven untrustworthy.
func (sh *shard) maybeCompact() {
	for {
		if sh.st.writable() != nil {
			return
		}
		did, err := sh.compactRun(false)
		if err != nil {
			sh.st.noteCompactErr(err)
			sh.st.degrade(fmt.Errorf("shard %d compaction: %w", sh.id, err))
			return
		}
		if !did {
			return
		}
	}
}
