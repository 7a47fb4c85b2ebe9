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
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
	if len(data) < frameHeader {
		return nil, 0, errTorn
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen < 8 || payloadLen > maxFrame || len(data) < frameHeader+payloadLen {
		return nil, 0, errTorn
	}
	frameLen = frameHeader + payloadLen
	payload := data[frameHeader:frameLen]
	if !checkPayload(data, payload) {
		return nil, frameLen, errTorn
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

// readFrameAt decodes one single-record frame — the only kind a
// segment holds — from r at the current position. It returns io.EOF
// cleanly at end of stream, errTorn on a damaged or cut-off frame and
// the reader's own error when the read itself failed. val lies inside a
// buffer allocated for this frame alone: the caller owns it.
func readFrameAt(r *bufio.Reader) (key string, val []byte, frameLen int, err error) {
	// The header is parsed where the reader holds it; a copy handed to
	// io.ReadFull would be a heap allocation per frame.
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return "", nil, 0, io.EOF
		}
		return "", nil, 0, shortRead(err)
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr))
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if payloadLen < 8 || payloadLen > maxFrame {
		return "", nil, 0, errTorn
	}
	r.Discard(frameHeader)
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return "", nil, 0, shortRead(err)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return "", nil, 0, errTorn
	}
	k, v, rest, ok := splitRecord(payload)
	if !ok || len(rest) != 0 {
		return "", nil, 0, errTorn
	}
	return string(k), v, frameHeader + payloadLen, nil
}

// shortRead names the failure of a read that ended inside a frame: the
// data running out is a torn frame, anything else is the I/O error it
// is — an EIO must not read as damage on disk.
func shortRead(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTorn
	}
	return fmt.Errorf("read: %w", err)
}
