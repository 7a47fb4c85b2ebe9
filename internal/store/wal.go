package store

import (
	"errors"
	"fmt"
	"os"

	"autotune/internal/chaos"
)

const walName = "wal.log"

// replayWAL reads a shard's write-ahead log, applying every complete
// frame in append order to mem (later records supersede earlier ones)
// and truncating a torn tail in place. A frame is applied with all of
// its records or not at all, so a batch cut short by a crash never
// half-reappears. WAL frames are length-prefixed with no resync
// marker, so the first damaged frame ends the readable prefix —
// exactly the crash-mid-append shape.
func replayWAL(fs chaos.FS, path string, mem map[string][]byte) (int64, error) {
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: wal: %w", err)
	}
	valid := int64(0)
	rest := data
	for len(rest) > 0 {
		recs, n, err := parseFrame(rest)
		if err != nil {
			break
		}
		for _, r := range recs {
			mem[r.key] = r.val
		}
		valid += int64(n)
		rest = rest[n:]
	}
	if valid < int64(len(data)) {
		if err := fs.Truncate(path, valid); err != nil {
			return 0, fmt.Errorf("store: wal: truncating torn tail: %w", err)
		}
	}
	return valid, nil
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
