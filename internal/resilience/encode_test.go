package resilience

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"autotune/internal/optimizer"
)

// referenceSnapshot is the encoder appendSnapshot replaced: the
// reflection walk of encoding/json over the snapshot.
func referenceSnapshot(s *optimizer.Snapshot) ([]byte, error) {
	return json.Marshal(s)
}

// FuzzSnapshotEncodingMatchesReference: for every snapshot shape the
// hand-written encoder produces the bytes json.Marshal produces — nil
// against empty slices at every level, problem and evals omitted when
// empty, strings JSON escapes (<, &, quotes, control bytes, invalid
// UTF-8) in the method and the problem tag, the float forms either side
// of 1e-6 and 1e21 — and refuses NaN and the infinities with
// json.Marshal's error.
func FuzzSnapshotEncodingMatchesReference(f *testing.F) {
	// shape is ten base-3 digits, one per slice of the snapshot: 0 nil,
	// 1 empty, 2 filled.
	// allEmpty has one island state, everything below it empty.
	const allNil, allEmpty, allFilled = 0, 29525, 59048
	f.Add("rs-gde3", "", 12, uint64(4242), int64(64), int64(8), 0.5, 8.0, uint16(allFilled))
	f.Add("nsga2", "00c0ffee00c0ffee", 0, uint64(0), int64(-1), int64(math.MaxInt64), math.Copysign(0, -1), 0.0, uint16(allNil))
	f.Add("gde3", "p", 0, uint64(0), int64(-1), int64(0), 1.0, 2.0, uint16(allEmpty))
	f.Add("a<b", "a&b", -3, uint64(math.MaxUint64), int64(math.MinInt64), int64(0), 1e-6, 9.999999999999999e-7, uint16(allFilled))
	f.Add("a>b", "tag\"with\\quotes", 4, uint64(5), int64(6), int64(7), 1e-7, -1.5e-9, uint16(allFilled))
	f.Add("ctrl\x00\x1f\n\t\b\f", "\xff\xfeinvalid", 7, uint64(1), int64(1), int64(2), 1e21, 9.999999999999999e20, uint16(allFilled))
	f.Add("line\u2028sep\u2029\x7f", "é", 1, uint64(2), int64(3), int64(4), 1e100, -1e-100, uint16(12345))
	f.Add("motpe", "x", 2, uint64(3), int64(5), int64(6), 1.7976931348623157e308, 5e-324, uint16(54321))
	f.Add("rs-gde3", "p", 3, uint64(4), int64(7), int64(8), math.NaN(), 1.0, uint16(allFilled))
	f.Add("rs-gde3", "p", 3, uint64(4), int64(7), int64(8), 1.0, math.Inf(1), uint16(allFilled))
	f.Add("rs-gde3", "p", 3, uint64(4), int64(7), int64(8), math.Inf(-1), 1.0, uint16(allFilled))
	f.Fuzz(func(t *testing.T, method, problem string, gen int, draws uint64, a, b int64, x, y float64, shape uint16) {
		pick := func(digit int) int {
			v := int(shape)
			for ; digit > 0; digit-- {
				v /= 3
			}
			return v % 3
		}
		cfg := func(digit int) []int64 {
			return [][]int64{nil, {}, {a, b}}[pick(digit)]
		}
		objs := func(digit int) []float64 {
			return [][]float64{nil, {}, {x, y}}[pick(digit)]
		}
		members := func(digit int) []optimizer.Member {
			switch pick(digit) {
			case 0:
				return nil
			case 1:
				return []optimizer.Member{}
			}
			return []optimizer.Member{{Config: cfg(digit + 1), Objs: objs(digit + 2)}, {Config: []int64{b}, Objs: []float64{y}}}
		}
		s := &optimizer.Snapshot{
			Method: method, Fingerprint: "00c0ffee00c0ffee", Problem: problem,
			Generation: gen, Evaluations: int(a),
		}
		switch pick(0) {
		case 1:
			s.States = []optimizer.IslandState{}
		case 2:
			s.States = []optimizer.IslandState{
				{Pop: members(1), Archive: members(4), Stagnant: gen, Draws: draws},
				{},
			}
		}
		switch pick(7) {
		case 1:
			s.Evals = []optimizer.EvalState{}
		case 2:
			s.Evals = []optimizer.EvalState{{Config: cfg(8), Objs: objs(9)}, {Config: []int64{a}}}
		}
		want, wantErr := referenceSnapshot(s)
		got, err := appendSnapshot([]byte("prefix"), s)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("appendSnapshot error = %v, json.Marshal error = %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendSnapshot\n got %s\nwant prefix%s", got, want)
		}
	})
}
