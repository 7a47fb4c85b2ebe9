package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// bloom is a classic Bloom filter over 64-bit key hashes, using double
// hashing (Kirsch–Mitzenmacher) to derive k bit positions from one
// hash. It answers "definitely absent" or "probably present" for a
// segment without touching the segment's data.
type bloom struct {
	m    uint64 // filter size in bits
	k    uint32 // probes per key
	bits []byte
}

// bloomBitsPerKey and bloomHashes size every new segment's filter:
// about 1% false positives. A segment stores its filter's size and
// probe count, so changing them leaves existing segments readable.
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloom {
	if n < 1 {
		n = 1
	}
	m := uint64(n) * bloomBitsPerKey
	if m < 64 {
		m = 64
	}
	return &bloom{m: m, k: bloomHashes, bits: make([]byte, (m+7)/8)}
}

// hashKey is the store-wide 64-bit key hash feeding bloom filters.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// probes derives the i-th bit position for hash h.
func (b *bloom) probe(h uint64, i uint32) uint64 {
	h2 := h>>33 | h<<31 | 1 // odd second hash for full-period stepping
	return (h + uint64(i)*h2) % b.m
}

func (b *bloom) add(h uint64) {
	for i := uint32(0); i < b.k; i++ {
		bit := b.probe(h, i)
		b.bits[bit>>3] |= 1 << (bit & 7)
	}
}

func (b *bloom) test(h uint64) bool {
	for i := uint32(0); i < b.k; i++ {
		bit := b.probe(h, i)
		if b.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// estimatedFPR is the textbook false-positive rate for n inserted keys:
// (1 - e^(-kn/m))^k.
func (b *bloom) estimatedFPR(n uint64) float64 {
	if b.m == 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(uint64(b.k)*n)/float64(b.m)), float64(b.k))
}

// marshal appends the filter's on-disk form: u64 m | u32 k | bits.
func (b *bloom) marshal(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, b.m)
	buf = binary.LittleEndian.AppendUint32(buf, b.k)
	return append(buf, b.bits...)
}

// unmarshalBloom parses a filter written by marshal.
func unmarshalBloom(data []byte) (*bloom, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("store: bloom section too short (%d bytes)", len(data))
	}
	m := binary.LittleEndian.Uint64(data)
	k := binary.LittleEndian.Uint32(data[8:])
	need := int((m + 7) / 8)
	if m == 0 || k == 0 || k > 64 || len(data)-12 < need {
		return nil, fmt.Errorf("store: bloom section malformed (m=%d k=%d have %d bytes)", m, k, len(data)-12)
	}
	return &bloom{m: m, k: k, bits: append([]byte(nil), data[12:12+need]...)}, nil
}
