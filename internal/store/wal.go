package store

import (
	"errors"
	"fmt"
	"os"

	"autotune/internal/chaos"
)

const walName = "wal.log"

// ReplayLog reads the append-only log at path and hands each, in
// append order, the records of every complete frame. The replay ends
// with the file, at the first frame that does not verify — frames are
// length-prefixed with no resync marker, so that frame ends the
// readable prefix: exactly the crash-mid-append shape — or before the
// frame each returns an error for, which ReplayLog returns. It hands
// back the file's image and the length of the prefix replayed;
// truncating the file to it drops the torn tail (or, stopped by each,
// everything from the refused frame on). Nothing is written here.
func ReplayLog(fs chaos.FS, path string, each func(recs []Record) error) (data []byte, valid int, err error) {
	data, err = fs.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	for valid < len(data) {
		recs, n, torn := ParseFrame(data[valid:])
		if torn != nil {
			break
		}
		if err := each(recs); err != nil {
			return data, valid, err
		}
		valid += n
	}
	return data, valid, nil
}

// replayWAL replays a shard's write-ahead log into mem — later records
// supersede earlier ones, a frame is applied with all of its records
// or not at all, so a batch cut short by a crash never half-reappears
// — and truncates a torn tail in place.
func replayWAL(fs chaos.FS, path string, mem map[string][]byte) (int64, error) {
	data, valid, err := ReplayLog(fs, path, func(recs []Record) error {
		for _, r := range recs {
			mem[r.Key] = r.Val
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: wal: %w", err)
	}
	if valid < len(data) {
		if err := fs.Truncate(path, int64(valid)); err != nil {
			return 0, fmt.Errorf("store: wal: truncating torn tail: %w", err)
		}
	}
	return int64(valid), nil
}

// openWALAppend opens the shard WAL for appending.
func openWALAppend(fs chaos.FS, path string) (chaos.File, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	return f, nil
}

// recreateWAL replaces the WAL with a fresh empty file, used when the
// existing one cannot be trusted (a torn append or failed fsync): the
// truncation is itself fsynced so the discarded bytes cannot
// resurrect.
func recreateWAL(fs chaos.FS, path string) (chaos.File, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: wal: %w", err)
	}
	return f, nil
}
