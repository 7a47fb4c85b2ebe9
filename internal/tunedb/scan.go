// Exported journal framing: the CRC-32C envelope machinery of the
// tuning database, reusable by other append-only journals — notably
// the search checkpoints of internal/resilience, which share the
// database's crash-safety contract (torn tails are truncated, interior
// corruption is an error).

package tunedb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
)

// EncodeRecord frames one record for an append-only journal: the
// payload is JSON-marshalled, CRC-32C-protected and wrapped in the
// database's versioned envelope, {"v":…,"t":…,"crc":…,"d":<payload>}.
// The envelope is written around the marshalled payload in one pass —
// json.Marshal has already compacted and escaped it, so it goes in
// verbatim. The returned line has no trailing newline; callers append
// one per record (the line has room for it).
func EncodeRecord(t string, rec interface{}) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("tunedb: encoding record: %w", err)
	}
	line := make([]byte, 0, len(payload)+len(t)+48)
	line = append(line, `{"v":`...)
	line = strconv.AppendInt(line, schemaVersion, 10)
	line = append(line, `,"t":`...)
	if plainJSONString(t) {
		line = append(append(append(line, '"'), t...), '"')
	} else {
		tag, err := json.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("tunedb: encoding record: %w", err)
		}
		line = append(line, tag...)
	}
	line = append(line, `,"crc":`...)
	line = strconv.AppendUint(line, uint64(crc32.Checksum(payload, crcTable)), 10)
	line = append(line, `,"d":`...)
	line = append(line, payload...)
	return append(line, '}'), nil
}

// plainJSONString reports whether encoding/json writes s between
// quotes unchanged: printable ASCII without the characters it escapes
// (quote, backslash and the HTML-sensitive <, > and &).
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ScanJournal replays a journal image record by record, calling fn for
// each valid record in order. It returns the byte length of the valid
// prefix: a torn tail — an unterminated or CRC-invalid final record,
// the signature of a crash mid-append — stops the scan cleanly, while
// a bad record followed by valid ones is interior corruption appending
// cannot explain and yields an error. Callers truncate their journal
// file to the returned length to recover from a torn tail.
func ScanJournal(data []byte, fn func(t string, payload json.RawMessage) error) (int, error) {
	offset := 0
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			return offset, nil
		}
		t, payload, err := decodeRecord(data[offset : offset+nl])
		if err != nil {
			if anyValidRecord(data[offset+nl+1:]) {
				return offset, fmt.Errorf("tunedb: corrupt journal record at byte %d: %w", offset, err)
			}
			return offset, nil
		}
		if err := fn(t, payload); err != nil {
			return offset, err
		}
		offset += nl + 1
	}
	return offset, nil
}
