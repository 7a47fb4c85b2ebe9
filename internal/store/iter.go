package store

import "strings"

// Iterator streams key/value pairs in canonical (bytewise ascending)
// key order, merging the memtables and segments of the shards it covers
// with newest-wins resolution for superseded versions of a key. It
// operates on a snapshot taken at creation: concurrent writes and
// compactions neither block it nor appear in it. Close must be called
// when done: it gives back the chunks the segments were read into.
type Iterator struct {
	h       mergeHeap
	streams []stream
	prefix  string
	key     string
	val     []byte
	err     error
	done    bool
	release func()
}

// stream is one sorted source feeding the merge. What next hands out
// stays whole through the following next, so the merge may advance a
// stream past the record it is about to hand out; close releases what
// the stream read into.
type stream interface {
	next() (key string, val []byte, ok bool, err error)
	close()
}

// heapEntry is the one pending record of a stream. Higher priority wins
// for duplicate keys (memtable over segments, newer segments over older
// ones).
type heapEntry struct {
	key  string
	val  []byte
	src  stream
	prio int
}

// mergeHeap is a binary min-heap of the streams' pending records,
// ordered by key and, under one key, newest source first. Every entry
// belongs to a different stream, so no two compare equal and the order
// records leave the heap in does not depend on how it is laid out. It
// is typed — container/heap would box every entry through an interface
// on the way in and on the way out.
type mergeHeap []heapEntry

func (h mergeHeap) less(a, b int) bool {
	if h[a].key != h[b].key {
		return h[a].key < h[b].key
	}
	return h[a].prio > h[b].prio
}

// down restores the heap order below position i.
func (h mergeHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// newMergedIterator merges sorted streams; streams[i] has priority i
// (later streams win duplicate keys). release, if non-nil, runs once at
// Close.
func newMergedIterator(streams []stream, prefix string, release func()) *Iterator {
	it := &Iterator{streams: streams, prefix: prefix, release: release, h: make(mergeHeap, 0, len(streams))}
	for i, s := range streams {
		k, v, ok, err := s.next()
		if err != nil {
			it.err = err
			it.done = true
			return it
		}
		if ok {
			it.h = append(it.h, heapEntry{key: k, val: v, src: s, prio: i})
		}
	}
	for i := len(it.h)/2 - 1; i >= 0; i-- {
		it.h.down(i)
	}
	return it
}

// Next advances to the next key; it returns false at the end of the
// range or on error (check Err).
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if len(it.h) == 0 {
		it.done = true
		return false
	}
	key, val := it.h[0].key, it.h[0].val
	// The record's duplicates in lower-priority sources are superseded:
	// they surface right behind it and are discarded.
	for {
		if err := it.advanceTop(); err != nil {
			return false
		}
		if len(it.h) == 0 || it.h[0].key != key {
			break
		}
	}
	if it.prefix != "" && !strings.HasPrefix(key, it.prefix) {
		// Sources start at the prefix, so the first key beyond it
		// ends the whole (sorted) range.
		it.done = true
		return false
	}
	it.key, it.val = key, val
	return true
}

// advanceTop replaces the heap's top record with its stream's next one,
// or drops the stream once it is exhausted.
func (it *Iterator) advanceTop() error {
	top := &it.h[0]
	k, v, ok, err := top.src.next()
	if err != nil {
		it.err = err
		it.done = true
		return err
	}
	if ok {
		top.key, top.val = k, v
	} else {
		last := len(it.h) - 1
		it.h[0] = it.h[last]
		it.h[last] = heapEntry{}
		it.h = it.h[:last]
	}
	it.h.down(0)
	return nil
}

// Key returns the current key; valid after Next reports true, and until
// the following Next or Close. A key read from a segment lies in the
// chunk it was read in, which a later Next or another scan reads into
// again: clone a key — or any substring of it — that is kept longer.
func (it *Iterator) Key() string { return it.key }

// Value returns the current value, valid as long as Key. Its capacity
// ends with it, so appending to it writes nothing of the iterator's;
// like Key, it lies in a read chunk: copy a value that is kept longer.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's snapshot and its read chunks; no key or
// value it handed out may be read after it. It is safe to call multiple
// times.
func (it *Iterator) Close() {
	it.done = true
	it.key, it.val = "", nil
	for _, s := range it.streams {
		s.close()
	}
	if it.release != nil {
		it.release()
		it.release = nil
	}
}

// memStream iterates a sorted memtable snapshot.
type memStream struct {
	keys []string
	vals [][]byte
	i    int
}

func (m *memStream) next() (string, []byte, bool, error) {
	if m.i >= len(m.keys) {
		return "", nil, false, nil
	}
	k, v := m.keys[m.i], m.vals[m.i]
	m.i++
	return k, v, true, nil
}

func (m *memStream) close() {}
