package store

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"autotune/internal/chaos"
)

// Offline integrity checking. Fsck opens nothing for writing and takes
// no locks: it reads the store directory as a crash would have left it
// and verifies every invariant the engine relies on — CRC-framed WAL
// records, segment checksums and sort order, footer bookkeeping, bloom
// filters that admit every stored key, and sparse-index entries that
// land on the frames they name. A torn WAL tail is a warning (that is
// the normal shape of a crash mid-append; open truncates it), anything
// else wrong is corruption.

// FsckShard is one shard's verdict.
type FsckShard struct {
	Shard int `json:"shard"`
	// Segments is the number of segment files verified.
	Segments int `json:"segments"`
	// WALFrames is the number of valid WAL frames and WALRecords the
	// number of records inside them (a PutBatch frame holds several);
	// WALTornBytes is the size of a trailing torn frame (0 for a clean
	// WAL).
	WALFrames    int   `json:"wal_frames"`
	WALRecords   int   `json:"wal_records"`
	WALTornBytes int64 `json:"wal_torn_bytes,omitempty"`
	// Problems lists corruption findings; empty means the shard is
	// sound. Warnings lists benign crash leftovers (torn WAL tail,
	// stale temp files).
	Problems []string `json:"problems,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

// OK reports whether the shard passed (warnings allowed).
func (s FsckShard) OK() bool { return len(s.Problems) == 0 }

// FsckReport is a whole-store verdict.
type FsckReport struct {
	Dir    string      `json:"dir"`
	Shards []FsckShard `json:"shards"`
	// Problems lists store-level corruption (bad meta.json, unreadable
	// layout).
	Problems []string `json:"problems,omitempty"`
}

// OK reports whether the store passed.
func (r FsckReport) OK() bool {
	if len(r.Problems) > 0 {
		return false
	}
	for _, s := range r.Shards {
		if !s.OK() {
			return false
		}
	}
	return true
}

// String renders the report as the one-line-per-shard verdict listing
// cmd/tunedb fsck prints.
func (r FsckReport) String() string {
	var b strings.Builder
	for _, s := range r.Shards {
		verdict := "ok"
		if !s.OK() {
			verdict = "CORRUPT"
		}
		fmt.Fprintf(&b, "shard %02d: %s (%d segments, %d wal frames, %d wal records", s.Shard, verdict, s.Segments, s.WALFrames, s.WALRecords)
		if s.WALTornBytes > 0 {
			fmt.Fprintf(&b, ", %d torn wal bytes", s.WALTornBytes)
		}
		b.WriteString(")\n")
		for _, w := range s.Warnings {
			fmt.Fprintf(&b, "  warning: %s\n", w)
		}
		for _, p := range s.Problems {
			fmt.Fprintf(&b, "  problem: %s\n", p)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "problem: %s\n", p)
	}
	return b.String()
}

// Fsck verifies the store at dir without opening it for writing. It
// returns an error only when the store cannot be read at all;
// corruption is reported in the FsckReport.
func Fsck(dir string) (FsckReport, error) {
	fs := chaos.OS{}
	rep := FsckReport{Dir: dir}
	data, err := fs.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return rep, fmt.Errorf("store: fsck: %w", err)
	}
	var m meta
	if err := json.Unmarshal(data, &m); err != nil || m.Version != 1 || m.Shards < 1 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("invalid %s: %v", metaName, err))
		return rep, nil
	}
	for id := 0; id < m.Shards; id++ {
		rep.Shards = append(rep.Shards, fsckShard(id, filepath.Join(dir, fmt.Sprintf("shard-%02d", id))))
	}
	return rep, nil
}

func fsckShard(id int, dir string) FsckShard {
	fs := chaos.OS{}
	out := FsckShard{Shard: id}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		out.Problems = append(out.Problems, fmt.Sprintf("reading shard dir: %v", err))
		return out
	}
	var segNames []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			out.Warnings = append(out.Warnings, fmt.Sprintf("stale temp file %s (crash leftover; removed at next open)", name))
		case isSegmentFile(name):
			segNames = append(segNames, name)
		}
	}
	sort.Strings(segNames)
	for _, name := range segNames {
		if probs := fsckSegment(filepath.Join(dir, name)); len(probs) > 0 {
			for _, p := range probs {
				out.Problems = append(out.Problems, fmt.Sprintf("segment %s: %s", name, p))
			}
		}
		out.Segments++
	}
	// WAL: every complete frame must be CRC-valid; a torn tail is the
	// crash shape open repairs, so it is only a warning.
	data, valid, err := ReplayLog(fs, filepath.Join(dir, walName), func(recs []Record) error {
		out.WALFrames++
		out.WALRecords += len(recs)
		return nil
	})
	if err == nil && valid < len(data) {
		out.WALTornBytes = int64(len(data) - valid)
		out.Warnings = append(out.Warnings, fmt.Sprintf("torn WAL tail: %d bytes after %d valid frames (truncated at next open)", out.WALTornBytes, out.WALFrames))
	}
	return out
}

// fsckSegment fully verifies one segment file: footer and checksums
// via loadSegment, then a complete data scan checking frame CRCs,
// strictly increasing keys, record count against the footer, bloom
// membership for every key (a filter that rejects a stored key would
// make reads silently miss it), and every sparse-index entry landing
// on a frame holding exactly the key it names.
func fsckSegment(path string) (problems []string) {
	fs := chaos.OS{}
	f, err := fs.Open(path)
	if err != nil {
		return []string{fmt.Sprintf("open: %v", err)}
	}
	defer f.Close()
	s, err := loadSegment(path, f)
	if err != nil {
		return []string{err.Error()}
	}
	offsets := map[int64]string{} // data offset → key, for index checking
	off := int64(len(segMagic))
	frames := frameReader{r: f, off: off, end: s.dataEnd}
	defer frames.release()
	var prev string
	var count uint64
	for {
		key, _, n, err := frames.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("frame at offset %d: %v", off, err))
			break
		}
		if count > 0 && key <= prev {
			problems = append(problems, fmt.Sprintf("keys out of order at offset %d: %q after %q", off, key, prev))
		}
		if !s.filter.test(hashKey(key)) {
			problems = append(problems, fmt.Sprintf("bloom filter rejects stored key %q", key))
		}
		// offsets keeps the key past the following next: a copy.
		prev = strings.Clone(key)
		offsets[off] = prev
		off += int64(n)
		count++
	}
	if count != s.count {
		problems = append(problems, fmt.Sprintf("footer names %d records, data holds %d", s.count, count))
	}
	for _, e := range s.index {
		if k, ok := offsets[e.off]; !ok {
			problems = append(problems, fmt.Sprintf("index entry %q points at offset %d, which starts no frame", e.key, e.off))
		} else if k != e.key {
			problems = append(problems, fmt.Sprintf("index entry %q points at frame holding %q", e.key, k))
		}
	}
	return problems
}
