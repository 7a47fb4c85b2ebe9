package store

import (
	"fmt"
	"math"
	"strconv"
)

// The module's two kinds of frame payload that hold numbers — the
// tuning database's evaluation values and the search checkpoint's
// snapshots — are JSON that encoding/json once wrote. They are built
// without its reflection walk from the two array writers below, which
// write byte for byte what json.Marshal writes for a []int64 and a
// []float64.

// AppendJSONInts appends vs as a JSON array: null for a nil slice, []
// for an empty one.
func AppendJSONInts(b []byte, vs []int64) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// AppendJSONFloats appends fs as a JSON array: null for a nil slice, []
// for an empty one. NaN and the infinities have no JSON form; they are
// refused with the error json.Marshal returns for them.
func AppendJSONFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, ']'), nil
}

// appendJSONFloat appends a finite float64 the way encoding/json does:
// the shortest representation that round-trips, in exponent form
// outside [1e-6, 1e21) with a one-digit negative exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
