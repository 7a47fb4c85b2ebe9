package objective

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"autotune/internal/skeleton"
)

// tableRef is what the reference map holds for a configuration.
type tableRef struct {
	state entryState
	objs  []float64
}

// tableOracle drives a configTable as the evaluator does — an entry
// inserted unknown, led (in flight), withdrawn back to unknown or
// finished (done) — beside a map keyed by Config.Key.
type tableOracle struct {
	t    *testing.T
	tab  configTable
	ref  map[string]*tableRef
	done int // results handed out so far
}

// lead registers cfg in flight unless it is in flight or done, as a
// batch's leader does, inserting it if the table does not hold it.
func (o *tableOracle) lead(cfg skeleton.Config) {
	e, h := o.tab.lookup(cfg)
	r := o.ref[cfg.Key()]
	if (e >= 0) != (r != nil) {
		o.t.Fatalf("lookup(%v) = %d, the reference holds it: %v", []int64(cfg), e, r != nil)
	}
	if r == nil {
		e = o.tab.insert(cfg, h)
		r = &tableRef{}
		o.ref[cfg.Key()] = r
	}
	if ent := o.tab.at(e); ent.state == unknown {
		ent.state, r.state = inFlight, inFlight
	}
}

// settle finishes cfg's evaluation in flight, or withdraws it.
func (o *tableOracle) settle(cfg skeleton.Config, finish bool) {
	e, _ := o.tab.lookup(cfg)
	r := o.ref[cfg.Key()]
	if e < 0 || r == nil || r.state != inFlight {
		return
	}
	ent := o.tab.at(e)
	if finish {
		o.done++
		objs := []float64{float64(o.done)}
		if o.done%4 == 0 {
			objs = nil // a failure
		}
		ent.state, ent.objs = done, objs
		r.state, r.objs = done, objs
	} else {
		ent.state, r.state = unknown, unknown
	}
}

// find checks the table's answer for cfg against the reference.
func (o *tableOracle) find(cfg skeleton.Config) {
	e, h := o.tab.lookup(cfg)
	if h != hashConfig(cfg) {
		o.t.Fatalf("lookup(%v) hashed to %x, hashConfig to %x", []int64(cfg), h, hashConfig(cfg))
	}
	r := o.ref[cfg.Key()]
	if (e >= 0) != (r != nil) {
		o.t.Fatalf("lookup(%v) = %d, the reference holds it: %v", []int64(cfg), e, r != nil)
	}
	if e < 0 {
		return
	}
	ent := o.tab.at(e)
	if !slices.Equal(o.tab.values(ent), cfg) {
		o.t.Fatalf("lookup(%v) found the entry of %v", []int64(cfg), o.tab.values(ent))
	}
	if ent.state != r.state || !reflect.DeepEqual(ent.objs, r.objs) {
		o.t.Fatalf("%v: state %d %v, the reference %d %v", []int64(cfg), ent.state, ent.objs, r.state, r.objs)
	}
}

// check holds the whole table to the reference: one entry per key,
// each found where lookup looks, and the slot index at most three
// quarters full.
func (o *tableOracle) check() {
	if o.tab.n != len(o.ref) {
		o.t.Fatalf("the table holds %d entries, the reference %d", o.tab.n, len(o.ref))
	}
	if o.tab.n*4 > len(o.tab.slots)*3 {
		o.t.Fatalf("%d entries in %d slots", o.tab.n, len(o.tab.slots))
	}
	used := 0
	for _, s := range o.tab.slots {
		if s != 0 {
			used++
		}
	}
	if used != o.tab.n {
		o.t.Fatalf("%d slots in use for %d entries", used, o.tab.n)
	}
	for e := int32(0); int(e) < o.tab.n; e++ {
		cfg := skeleton.Config(slices.Clone(o.tab.values(o.tab.at(e))))
		if o.ref[cfg.Key()] == nil {
			o.t.Fatalf("entry %d holds %v, which the reference does not", e, []int64(cfg))
		}
		if got, _ := o.tab.lookup(cfg); got != e {
			o.t.Fatalf("lookup(%v) = %d, its entry is %d", []int64(cfg), got, e)
		}
		o.find(cfg)
	}
}

// tableValues are the values the fuzzer draws configurations from:
// the extremes, zero and its neighbours, and values past 32 bits.
var tableValues = []int64{0, 1, -1, 2, 7, -7, 64, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 32, -(1 << 32), 1<<32 + 1, 1000003, -1000003}

// colliding returns up to k configurations other than cfg that share
// its slot under the table's current slot mask (or a 32-slot one).
func colliding(tab *configTable, cfg skeleton.Config, k int) []skeleton.Config {
	mask := uint64(max(len(tab.slots), minSlots) - 1)
	want := hashConfig(cfg) & mask
	var out []skeleton.Config
	for x := int64(0); len(out) < k && x < 1<<20; x++ {
		// cfg with its last value replaced by x, or {x}.
		c := append(slices.Clone(cfg[:max(len(cfg)-1, 0)]), x)
		if hashConfig(c)&mask == want && !slices.Equal(c, cfg) {
			out = append(out, c)
		}
	}
	return out
}

// FuzzConfigTableMatchesReference: an op sequence of leads (inserting
// unknown configurations), finds, withdrawals and re-leads, finished
// evaluations and Reserve calls over configurations of 0 to 6 values —
// the extremes of int64, 0 and negatives among them — over runs of
// configurations that collide under the slot mask, found here by
// hashing, over bulk leads that cross three or more chunk boundaries of
// the entries and of the values, and over configurations too long for
// a value chunk, leaves a table whose every answer equals a map keyed by
// Config.Key.
func FuzzConfigTableMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 3, 1, 2, 3, 0x01, 3, 1, 2, 3, 0x02, 3, 1, 2, 3, 0x00, 3, 1, 2, 3, 0x03, 3, 1, 2, 3})
	f.Add([]byte{0x00, 0, 0x00, 1, 0, 0x04, 2, 7, 8, 0x03, 0, 0x01, 0, 0x02, 1, 0})
	f.Add([]byte{0x05, 5, 0x00, 6, 7, 8, 9, 10, 11, 12, 0x06, 2, 1, 0x01, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x06, 3, 5, 9, 0x06, 3, 5, 9, 0x07, 40, 0x05, 9, 0x02, 3, 5, 9})
	f.Add([]byte{0x08, 1, 0x08, 2, 0x00, 1, 0x05, 2, 0x07, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		o := &tableOracle{t: t, ref: map[string]*tableRef{}}
		ops := &byteStream{data: data}
		readCfg := func() skeleton.Config {
			cfg := make(skeleton.Config, int(ops.next())%7)
			for i := range cfg {
				b := ops.next()
				cfg[i] = tableValues[int(b)%len(tableValues)]
				if b >= 128 {
					cfg[i] = int64(b) - 192
				}
			}
			return cfg
		}
		var last skeleton.Config
		for n := 0; ops.more() && n < 128; n++ {
			switch op := ops.next(); op % 9 {
			case 0:
				last = readCfg()
				o.lead(last)
			case 1:
				last = readCfg()
				o.find(last)
			case 2:
				last = readCfg()
				o.settle(last, false)
			case 3:
				last = readCfg()
				o.settle(last, true)
			case 4:
				o.tab.reserve(int(ops.next()) * 8)
			case 5:
				// A bulk lead of distinct six-value configurations: at
				// 128 entries and 1,024 values a chunk, the largest
				// crosses four entry and three value chunk boundaries.
				base := int64(ops.next())
				for i := int64(0); i < 100*(base%6+1); i++ {
					o.lead(skeleton.Config{i, base, -i, i * i, math.MinInt64 + i, 5})
				}
			case 6:
				// Configurations that collide with the last one.
				if last == nil {
					last = readCfg()
				}
				for _, c := range colliding(&o.tab, last, int(ops.next())%6+1) {
					o.lead(c)
					o.settle(c, c[0]%2 == 0)
				}
			case 7:
				// Finish or withdraw every configuration in flight
				// whose first value's parity the byte names.
				parity := int64(ops.next() % 2)
				for e := int32(0); int(e) < o.tab.n; e++ {
					cfg := skeleton.Config(slices.Clone(o.tab.values(o.tab.at(e))))
					if len(cfg) > 0 && cfg[0]&1 == parity {
						o.settle(cfg, cfg[len(cfg)-1]&1 == 0)
					}
				}
			case 8:
				// A configuration longer than a value chunk.
				cfg := make(skeleton.Config, valChunk+int(ops.next()))
				for i := range cfg {
					cfg[i] = int64(i)
				}
				cfg[len(cfg)-1] = int64(op)
				o.lead(cfg)
				o.find(cfg)
			}
		}
		o.check()
	})
}

// The hash is fixed: these values pin it, so a change to the mixer —
// which would move the probe order between builds — is seen.
func TestHashConfigPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  []int64
		want uint64
	}{
		{nil, 0x0},
		{[]int64{0}, 0x12c36dc332d09808},
		{[]int64{32, 64, 128, 40}, 0x4dcd2ad6005c36f4},
		{[]int64{math.MinInt64, math.MaxInt64}, 0x81cd98a37e7050a9},
	} {
		if got := hashConfig(tc.cfg); got != tc.want {
			t.Errorf("hashConfig(%v) = %#x, want %#x", tc.cfg, got, tc.want)
		}
	}
}

// TestConfigTableGrowsAcrossChunks: a table of 5,000 four-value
// configurations — 40 entry chunks, 20 value chunks — finds every one
// of them at the entry it was given, and none it was not given.
func TestConfigTableGrowsAcrossChunks(t *testing.T) {
	var tab configTable
	tab.reserve(100)
	for i := int64(0); i < 5000; i++ {
		cfg := skeleton.Config{i % 71, i / 71, -i, 4}
		e, h := tab.lookup(cfg)
		if e >= 0 {
			t.Fatalf("%v found before it was inserted", cfg)
		}
		if got := tab.insert(cfg, h); got != int32(i) {
			t.Fatalf("%v inserted as entry %d, want %d", cfg, got, i)
		}
	}
	for i := int64(0); i < 5000; i++ {
		if e, _ := tab.lookup(skeleton.Config{i % 71, i / 71, -i, 4}); e != int32(i) {
			t.Fatalf("entry %d found as %d", i, e)
		}
		if e, _ := tab.lookup(skeleton.Config{i % 71, i / 71, -i, 5}); e >= 0 {
			t.Fatalf("a configuration never inserted found as %d", e)
		}
	}
	if len(tab.entries) != 40 || len(tab.vals) != 20 || len(tab.slots) != 8192 {
		t.Fatalf("%d entry chunks, %d value chunks, %d slots; want 40, 20 and 8192", len(tab.entries), len(tab.vals), len(tab.slots))
	}
}
