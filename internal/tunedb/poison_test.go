//go:build poison

package tunedb

import (
	"testing"

	"autotune/internal/skeleton"
)

// TestPoisonOverwritesReleasedScratch: under the poison tag, the write
// and scan scratch a PutEvals or a scan gives back holds only values no
// reader may find — 0xff bytes, -1 ends — and no pointer, however far
// it had been filled. Without this the poison CI step would test
// nothing.
func TestPoisonOverwritesReleasedScratch(t *testing.T) {
	w := &writeScratch{
		keys: []string{"e|k|1", "e|k|2"},
		vals: [][]byte{[]byte("1"), []byte("2")},
		buf:  append(make([]byte, 0, 64), `{"config":[1],"objectives":[2]}`...),
		kept: []keptEval{{i: 1, ck: "2"}},
	}
	keys, vals, buf, kept := w.keys[:cap(w.keys)], w.vals[:cap(w.vals)], w.buf[:cap(w.buf)], w.kept[:cap(w.kept)]
	w.release()
	for _, b := range buf {
		if b != 0xff {
			t.Fatalf("the released value buffer holds %q", buf)
		}
	}
	for i := range keys {
		if keys[i] != "" || vals[i] != nil {
			t.Fatalf("the released scratch still holds store key %q, value %q", keys[i], vals[i])
		}
	}
	if kept[0].ck != "" {
		t.Fatalf("the released scratch still holds configuration key %q", kept[0].ck)
	}

	s := &scanScratch{
		cfgs:     []skeleton.Config{{1, 2}},
		objs:     [][]float64{{3}},
		ends:     []int{3, 7},
		suffixes: []byte("1,23,4,5"),
	}
	cfgs, objs, ends, suffixes := s.cfgs[:cap(s.cfgs)], s.objs[:cap(s.objs)], s.ends[:cap(s.ends)], s.suffixes[:cap(s.suffixes)]
	s.release()
	if cfgs[0] != nil || objs[0] != nil {
		t.Fatalf("the released scan scratch still holds %v, %v", cfgs[0], objs[0])
	}
	for _, e := range ends {
		if e != -1 {
			t.Fatalf("the released scan scratch's ends are %v", ends)
		}
	}
	for _, b := range suffixes {
		if b != 0xff {
			t.Fatalf("the released scan scratch's keys are %q", suffixes)
		}
	}
}
