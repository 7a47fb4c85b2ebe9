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
// Crash safety follows the journal playbook of internal/tunedb: WAL
// appends are CRC-framed so a torn tail is detected and truncated;
// segments are written to a temp file, fsynced, renamed into place and
// the directory fsynced, so a segment under its final name is always
// complete; compaction output records the sequence interval of its
// inputs, so a crash between the output rename and the input deletion
// is healed at open by dropping any segment whose interval another
// segment contains.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"autotune/internal/chaos"
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

// record is one key/value pair of a frame.
type record struct {
	key string
	val []byte
}

// appendFrame appends one CRC-framed run of key/value records to buf:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload = one or more of: u32 keyLen | key | u32 valLen | value
//
// A WAL frame holds everything one PutBatch call wrote, so replay sees
// a batch whole or — torn — not at all; Put writes the one-record
// frame, and segment files hold no other kind.
func appendFrame(buf []byte, keys []string, vals [][]byte) []byte {
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

// frameSize is the encoded length of the frame appendFrame builds.
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

// parseFrame decodes the frame at the start of data, returning copies
// of its records and the total frame length. A short, oversized or
// CRC-mismatched frame, or one whose payload does not divide into
// whole records, returns errTorn: a frame is all of its records or
// none of them.
func parseFrame(data []byte) (recs []record, frameLen int, err error) {
	if len(data) < frameHeader {
		return nil, 0, errTorn
	}
	payloadLen := int(binary.LittleEndian.Uint32(data))
	if payloadLen < 8 || payloadLen > maxFrame || len(data) < frameHeader+payloadLen {
		return nil, 0, errTorn
	}
	payload := data[frameHeader : frameHeader+payloadLen]
	if !checkPayload(data, payload) {
		return nil, 0, errTorn
	}
	for len(payload) > 0 {
		key, val, rest, ok := splitRecord(payload)
		if !ok {
			return nil, 0, errTorn
		}
		recs = append(recs, record{key: string(key), val: append([]byte(nil), val...)})
		payload = rest
	}
	return recs, frameHeader + payloadLen, nil
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

// SyncDir flushes directory metadata so a just-renamed file cannot be
// lost (or a just-removed one resurrected) by a crash. Exported for
// callers performing their own atomic rename protocols around a store
// (tunedb's v1 migration renames a whole store directory into place).
func SyncDir(dir string) error { return chaos.OS{}.SyncDir(dir) }
