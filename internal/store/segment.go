package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"autotune/internal/chaos"
)

// Segment file layout:
//
//	magic "TSTSEG01"                                    (8 bytes)
//	data:   CRC frames, keys strictly increasing
//	index:  sparse entries  u32 keyLen | key | u64 off  (every indexInterval-th record)
//	bloom:  u64 m | u32 k | bits
//	footer: u64 dataEnd | u64 indexOff | u64 bloomOff |
//	        u64 count | u64 seqMin | u64 seqMax |
//	        u32 crc32c(first 48 footer bytes) | magic "TSTFTR01"   (60 bytes)
//
// [seqMin, seqMax] is the interval of write sequence numbers the
// segment covers: a fresh memtable flush covers exactly one sequence,
// a compaction output covers the union of its inputs. Recency order of
// segments is seqMax order, and a segment whose interval is contained
// in another's is superseded by it (the healed half of an interrupted
// compaction).
const (
	segMagic    = "TSTSEG01"
	footerMagic = "TSTFTR01"
	footerSize  = 60
	segSuffix   = ".seg"
	tmpSuffix   = ".tmp"
)

// segment is an open, immutable, sorted segment file.
type segment struct {
	path     string
	f        chaos.File
	size     int64
	dataEnd  int64
	count    uint64
	seqMin   uint64
	seqMax   uint64
	index    []indexEntry
	filter   *bloom
	interval int // index interval the segment was written with

	// refs/dead are guarded by the owning shard's mutex: a segment is
	// closed and unlinked only when marked dead with no refs left.
	refs int
	dead bool
}

type indexEntry struct {
	key string
	off int64
}

// segName names a segment by the sequence interval it covers; the name
// is unique because an interval identifies one merge (or one flush).
func segName(seqMin, seqMax uint64) string {
	return fmt.Sprintf("seg-%016x-%016x%s", seqMin, seqMax, segSuffix)
}

// kvSource streams sorted key/value pairs into a segment writer. What
// next hands out may last only until the following next: a merge of
// segment scans reads into recycled chunks.
type kvSource interface {
	next() (key string, val []byte, ok bool, err error)
}

// writeSegment streams src (sorted, unique keys) into a new segment
// file at dir/segName(seqMin,seqMax), going through a temp file, fsync
// and rename so the final name only ever holds a complete segment. It
// returns the number of records written.
func writeSegment(dir string, seqMin, seqMax uint64, src kvSource, approxKeys int, opt *Options) (uint64, error) {
	fs := opt.FS
	interval := opt.indexInterval
	if interval < 1 {
		interval = 1
	}
	final := filepath.Join(dir, segName(seqMin, seqMax))
	tmp := final + tmpSuffix
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fail := func(err error) (uint64, error) {
		f.Close()
		fs.Remove(tmp)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	if _, err := w.WriteString(segMagic); err != nil {
		return fail(err)
	}
	filter := newBloom(approxKeys)
	// A memtable's keys are its own for good; the keys any other source
	// hands out are copied before the index keeps them.
	_, stableKeys := src.(*memSource)
	var index []indexEntry
	var count uint64
	off := int64(len(segMagic))
	var frame []byte
	for {
		key, val, ok, err := src.next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		if count%uint64(interval) == 0 {
			if !stableKeys {
				key = strings.Clone(key)
			}
			index = append(index, indexEntry{key: key, off: off})
		}
		filter.add(hashKey(key))
		frame = AppendFrame(frame[:0], []string{key}, [][]byte{val})
		if _, err := w.Write(frame); err != nil {
			return fail(err)
		}
		off += int64(len(frame))
		count++
	}
	dataEnd := off
	indexOff := off
	var ibuf []byte
	for _, e := range index {
		ibuf = binary.LittleEndian.AppendUint32(ibuf[:0], uint32(len(e.key)))
		ibuf = append(ibuf, e.key...)
		ibuf = binary.LittleEndian.AppendUint64(ibuf, uint64(e.off))
		if _, err := w.Write(ibuf); err != nil {
			return fail(err)
		}
		off += int64(len(ibuf))
	}
	bloomOff := off
	bb := filter.marshal(nil)
	if _, err := w.Write(bb); err != nil {
		return fail(err)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(dataEnd))
	binary.LittleEndian.PutUint64(foot[8:], uint64(indexOff))
	binary.LittleEndian.PutUint64(foot[16:], uint64(bloomOff))
	binary.LittleEndian.PutUint64(foot[24:], count)
	binary.LittleEndian.PutUint64(foot[32:], seqMin)
	binary.LittleEndian.PutUint64(foot[40:], seqMax)
	binary.LittleEndian.PutUint32(foot[48:], crc32.Checksum(foot[:48], crcTable))
	copy(foot[52:], footerMagic)
	if _, err := w.Write(foot[:]); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		fs.Remove(tmp)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	return count, nil
}

// openSegment validates and opens one segment file, loading its sparse
// index and bloom filter into memory; the data section stays on disk.
func openSegment(fs chaos.FS, path string) (*segment, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s, err := loadSegment(path, f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: segment %s: %w", filepath.Base(path), err)
	}
	return s, nil
}

func loadSegment(path string, f chaos.File) (*segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+footerSize {
		return nil, fmt.Errorf("truncated (%d bytes)", size)
	}
	var magic [8]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, err
	}
	if string(magic[:]) != segMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, err
	}
	if string(foot[52:60]) != footerMagic {
		return nil, fmt.Errorf("bad footer magic")
	}
	if crc32.Checksum(foot[:48], crcTable) != binary.LittleEndian.Uint32(foot[48:]) {
		return nil, fmt.Errorf("footer CRC mismatch")
	}
	s := &segment{
		path:    path,
		f:       f,
		size:    size,
		dataEnd: int64(binary.LittleEndian.Uint64(foot[0:])),
		count:   binary.LittleEndian.Uint64(foot[24:]),
		seqMin:  binary.LittleEndian.Uint64(foot[32:]),
		seqMax:  binary.LittleEndian.Uint64(foot[40:]),
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[8:]))
	bloomOff := int64(binary.LittleEndian.Uint64(foot[16:]))
	if s.dataEnd < int64(len(segMagic)) || indexOff < s.dataEnd || bloomOff < indexOff || bloomOff > size-footerSize || s.seqMin > s.seqMax {
		return nil, fmt.Errorf("inconsistent footer")
	}
	// The index keys are cut from ibuf in place: nothing writes it again.
	ibuf := make([]byte, bloomOff-indexOff)
	if _, err := io.ReadFull(io.NewSectionReader(f, indexOff, int64(len(ibuf))), ibuf); err != nil {
		return nil, fmt.Errorf("reading index: %w", err)
	}
	for len(ibuf) > 0 {
		if len(ibuf) < 4 {
			return nil, fmt.Errorf("index entry truncated")
		}
		klen := int(binary.LittleEndian.Uint32(ibuf))
		if klen < 0 || len(ibuf) < 4+klen+8 {
			return nil, fmt.Errorf("index entry truncated")
		}
		key := unsafe.String(unsafe.SliceData(ibuf[4:]), klen)
		off := int64(binary.LittleEndian.Uint64(ibuf[4+klen:]))
		if off < int64(len(segMagic)) || off >= s.dataEnd && s.count > 0 {
			return nil, fmt.Errorf("index offset out of range")
		}
		s.index = append(s.index, indexEntry{key: key, off: off})
		ibuf = ibuf[4+klen+8:]
	}
	bb := make([]byte, size-footerSize-bloomOff)
	if _, err := io.ReadFull(io.NewSectionReader(f, bloomOff, int64(len(bb))), bb); err != nil {
		return nil, fmt.Errorf("reading bloom: %w", err)
	}
	s.filter, err = unmarshalBloom(bb)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *segment) close() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// chunkPool holds the chunks segment reads cut their frames from: a
// frameReader takes at most two when it first needs them and its
// release gives them back, so scans and point gets read into chunks
// that earlier ones read into.
var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// get point-looks key up: the sparse index narrows the scan to one
// block of at most the write-time index interval, from the last index
// entry at or before key to the next entry (or the end of the data),
// which a frameReader walks up to the key, every frame verified. A
// block of up to chunkSize is read into one pooled chunk, one read per
// get — this is no block cache: every get reads its block from the
// file — and the value returned is a copy of its own: the caller's.
// The caller has already consulted the bloom filter.
func (s *segment) get(key string) ([]byte, bool, error) {
	i := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > key })
	if i == 0 {
		// Every key in the segment is > key.
		return nil, false, nil
	}
	fr := frameReader{r: s.f, off: s.index[i-1].off, end: s.dataEnd}
	defer fr.release()
	if i < len(s.index) {
		fr.end = s.index[i].off
	}
	for {
		k, v, _, err := fr.next()
		if err == io.EOF {
			return nil, false, nil
		}
		if err != nil {
			return nil, false, fmt.Errorf("store: segment %s: %w", filepath.Base(s.path), err)
		}
		if k == key {
			return append([]byte(nil), v...), true, nil
		}
		if k > key {
			return nil, false, nil
		}
	}
}

// chunkSize is the most a segment stream reads from its file at once.
const chunkSize = 32 << 10

// iter streams, in order, the segment's records from the first key >=
// prefix on; it may stop anywhere behind the last key that has the
// prefix (the whole segment for ""). The sparse index bounds the scan on
// both sides — at most one index interval of foreign records before the
// range and one after it — and no read is larger than what is left of
// that stretch, so a scan that wants a few records of a large segment
// reads no more than their stretch. What next hands out stays whole
// through the following next (see frameReader); close gives the
// stream's chunks back.
func (s *segment) iter(prefix string) *segIter {
	off, end := int64(len(segMagic)), s.dataEnd
	if i := sort.Search(len(s.index), func(i int) bool { return s.index[i].key > prefix }); i > 0 {
		off = s.index[i-1].off
	}
	if prefix != "" {
		// The first indexed key behind every key with the prefix: no
		// record from there on can have it.
		if i := sort.Search(len(s.index), func(i int) bool {
			k := s.index[i].key
			return k > prefix && !strings.HasPrefix(k, prefix)
		}); i < len(s.index) {
			end = s.index[i].off
		}
	}
	return &segIter{seg: s, frames: frameReader{r: s.f, off: off, end: end}, start: prefix}
}

type segIter struct {
	seg     *segment
	frames  frameReader
	start   string
	started bool
}

func (it *segIter) next() (string, []byte, bool, error) {
	for {
		k, v, _, err := it.frames.next()
		if err == io.EOF {
			return "", nil, false, nil
		}
		if err != nil {
			return "", nil, false, fmt.Errorf("store: segment %s: %w", filepath.Base(it.seg.path), err)
		}
		if !it.started {
			if k < it.start {
				continue
			}
			it.started = true
		}
		return k, v, true, nil
	}
}

func (it *segIter) close() { it.frames.release() }

// frameReader cuts the single-record frames of the stretch [off, end)
// of a segment file out of the chunks it reads the file into. It reads
// into two chunks of chunkSize, taken from chunkPool when it first needs
// them, and alternates between them: the file is read into the part of
// the current chunk behind the frames cut so far, and when a frame does
// not fit there, the uncut start of it moves to the front of the other
// chunk and the file is read in behind it. A frame larger than a chunk
// is read into a buffer of its own. So what next hands out — the key as
// a string and the value as a slice, both in place — stays whole
// through the following next, which writes only the chunk it did not
// cut that frame from, and no longer: the next after that may write it.
// A caller that keeps a frame longer copies it. release gives the
// chunks back; nothing next handed out may be read after it.
type frameReader struct {
	r      io.ReaderAt
	off    int64  // file offset of the first byte not yet read
	end    int64  // file offset the stretch ends at
	buf    []byte // read and not yet cut; its capacity runs to its buffer's end
	chunks [2]*[chunkSize]byte
	cur    int // the chunk read into last
}

// next cuts the next frame. It returns io.EOF cleanly at the end of the
// stretch, errTorn on a damaged or cut-off frame and the file's own
// error when a read failed.
func (fr *frameReader) next() (key string, val []byte, frameLen int, err error) {
	if err := fr.fill(frameHeader); err != nil {
		return "", nil, 0, err
	}
	if len(fr.buf) == 0 && fr.off == fr.end {
		return "", nil, 0, io.EOF
	}
	if n, ok := frameLenAt(fr.buf); ok {
		if err := fr.fill(n); err != nil {
			return "", nil, 0, err
		}
	}
	k, v, frameLen, err := cutFrame(fr.buf)
	if err != nil {
		return "", nil, 0, err
	}
	fr.buf = fr.buf[frameLen:]
	return unsafe.String(unsafe.SliceData(k), len(k)), v[:len(v):len(v)], frameLen, nil
}

// fill reads until buf holds need bytes. It reads nothing for a need
// the rest of the stretch cannot meet — the frame is cut off whatever
// the file holds — and stops short, without an error, where the file
// ends before the stretch does.
func (fr *frameReader) fill(need int) error {
	left := fr.end - fr.off
	if len(fr.buf) >= need || int64(need-len(fr.buf)) > left {
		return nil
	}
	if cap(fr.buf) < need {
		var next []byte
		if need <= chunkSize {
			fr.cur ^= 1
			if fr.chunks[fr.cur] == nil {
				fr.chunks[fr.cur] = chunkPool.Get().(*[chunkSize]byte)
			}
			next = fr.chunks[fr.cur][:len(fr.buf)]
		} else {
			next = make([]byte, len(fr.buf), need)
		}
		copy(next, fr.buf)
		fr.buf = next
	}
	p := fr.buf[len(fr.buf):cap(fr.buf)]
	if int64(len(p)) > left {
		p = p[:left]
	}
	n, err := fr.r.ReadAt(p, fr.off)
	fr.buf = fr.buf[:len(fr.buf)+n]
	fr.off += int64(n)
	if n < len(p) {
		if err != io.EOF {
			return fmt.Errorf("read: %w", err)
		}
		fr.end = fr.off
	}
	return nil
}

// release gives the reader's chunks back to chunkPool. A reader released
// and read again takes chunks anew.
func (fr *frameReader) release() {
	for i, c := range fr.chunks {
		if c != nil {
			chunkPool.Put(c)
			fr.chunks[i] = nil
		}
	}
	fr.buf = nil
}

// isSegmentFile reports whether a directory entry names a segment.
func isSegmentFile(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, segSuffix)
}
