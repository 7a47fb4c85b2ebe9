// Package store is an embedded LSM-style storage engine: string keys
// map to byte values inside sharded logs. Each shard owns a write-ahead
// log and an in-memory memtable; when the memtable fills it is flushed
// to an immutable, sorted, CRC-framed segment file with a per-segment
// bloom filter and a sparse key index, so point lookups touch only
// probable segments and read only one small block. Size-tiered
// background compaction merges runs of similar-sized segments, dropping
// superseded versions of a key. Shard assignment is pluggable
// (tunedb shards by program fingerprint), writers on different shards
// never contend, and Iter merges the shards a prefix can live in — one,
// when the prefix names its shard — back into one range scan in
// canonical (bytewise) key order.
//
// Crash safety: WAL appends are CRC-framed so a torn tail is detected
// and truncated; segments are written to a temp file, fsynced, renamed
// into place and the directory fsynced, so a segment under its final
// name is always complete; compaction output records the sequence
// interval of its inputs, so a crash between the output rename and the
// input deletion is healed at open by dropping any segment whose
// interval another segment contains.
//
// The WAL's framing is exported as the module's one crash-safe log:
// AppendFrame encodes a frame, ReplayLog walks a log file frame by
// frame up to the first one that does not verify, ParseFrame decodes
// one. A shard replays and appends its WAL with them, and so does the
// search checkpoint of internal/resilience; no other record framing
// exists in the tree.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxFrame bounds a single frame's payload; anything larger in a file
// is treated as corruption rather than attempted as an allocation.
const maxFrame = 1 << 28

// errTorn marks a frame that is incomplete or CRC-invalid — the
// signature of a crash mid-append when found at the tail of a log.
var errTorn = fmt.Errorf("store: torn frame")

// frameHeader is the size of a frame's length and CRC prefix.
const frameHeader = 8

// Record is one key/value pair of a frame.
type Record struct {
	Key string
	Val []byte
}

// AppendFrame appends one CRC-framed run of key/value records to buf:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload = one or more of: u32 keyLen | key | u32 valLen | value
//
// A WAL frame holds everything one PutBatch call wrote, so replay sees
// a batch whole or — torn — not at all; Put writes the one-record
// frame, and segment files hold no other kind.
func AppendFrame(buf []byte, keys []string, vals [][]byte) []byte {
	start := len(buf)
	buf = slices.Grow(buf, frameSize(keys, vals))
	buf = append(buf, make([]byte, frameHeader)...)
	for i, key := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals[i])))
		buf = append(buf, vals[i]...)
	}
	p := buf[start:]
	binary.LittleEndian.PutUint32(p[0:], uint32(len(p)-frameHeader))
	binary.LittleEndian.PutUint32(p[4:], crc32.Checksum(p[frameHeader:], crcTable))
	return buf
}

// frameSize is the encoded length of the frame AppendFrame builds.
func frameSize(keys []string, vals [][]byte) int {
	n := frameHeader
	for i, key := range keys {
		n += 4 + len(key) + 4 + len(vals[i])
	}
	return n
}

// checkPayload verifies a frame's payload against its header.
func checkPayload(hdr, payload []byte) bool {
	return crc32.Checksum(payload, crcTable) == binary.LittleEndian.Uint32(hdr[4:])
}

// splitRecord cuts the first record off a frame payload; ok is false
// when the payload is shorter than the lengths it names.
func splitRecord(p []byte) (key, val, rest []byte, ok bool) {
	if len(p) < 8 {
		return nil, nil, nil, false
	}
	klen := int(binary.LittleEndian.Uint32(p))
	if klen < 0 || klen > len(p)-8 {
		return nil, nil, nil, false
	}
	vlen := int(binary.LittleEndian.Uint32(p[4+klen:]))
	if vlen < 0 || vlen > len(p)-8-klen {
		return nil, nil, nil, false
	}
	return p[4 : 4+klen], p[8+klen : 8+klen+vlen], p[8+klen+vlen:], true
}

// ParseFrame decodes the frame at the start of data, returning copies
// of its records and the total frame length. A short, oversized or
// CRC-mismatched frame, or one whose payload does not divide into
// whole records, returns errTorn: a frame is all of its records or
// none of them. With the error, frameLen tells the two kinds of bad
// frame apart: zero when the frame the header names runs past the end
// of data (what a crash mid-append leaves, and what a damaged length
// field looks like), its length when every byte of it is there and
// does not verify — damage, and data[frameLen:] is where its successor
// would start.
func ParseFrame(data []byte) (recs []Record, frameLen int, err error) {
	payload, frameLen, err := framePayload(data)
	if err != nil {
		return nil, frameLen, err
	}
	for len(payload) > 0 {
		key, val, rest, ok := splitRecord(payload)
		if !ok {
			return nil, frameLen, errTorn
		}
		recs = append(recs, Record{Key: string(key), Val: append([]byte(nil), val...)})
		payload = rest
	}
	return recs, frameLen, nil
}

// framePayload verifies the frame at the start of data and returns its
// payload, in place, and its length; the error and frameLen are
// ParseFrame's.
func framePayload(data []byte) (payload []byte, frameLen int, err error) {
	n, ok := frameLenAt(data)
	if !ok || len(data) < n {
		return nil, 0, errTorn
	}
	payload = data[frameHeader:n]
	if !checkPayload(data, payload) {
		return nil, n, errTorn
	}
	return payload, n, nil
}

// frameLenAt reads the length of the frame whose header data starts
// with; ok is false when data holds no whole header or the header
// names a payload too short to hold a record or longer than maxFrame.
func frameLenAt(data []byte) (n int, ok bool) {
	if len(data) < frameHeader {
		return 0, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen < 8 || payloadLen > maxFrame {
		return 0, false
	}
	return frameHeader + payloadLen, true
}

// cutFrame decodes the single-record frame — the only kind a segment
// holds — at the start of data, in place: key and val lie inside data.
// A frame that is cut off, damaged or holds other than one record is
// errTorn.
func cutFrame(data []byte) (key, val []byte, frameLen int, err error) {
	payload, frameLen, err := framePayload(data)
	if err != nil {
		return nil, nil, 0, err
	}
	key, val, rest, ok := splitRecord(payload)
	if !ok || len(rest) != 0 {
		return nil, nil, 0, errTorn
	}
	return key, val, frameLen, nil
}
