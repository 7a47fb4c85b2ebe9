package skeleton

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"autotune/internal/testenv"
)

// referenceKey is the oracle for Config.Key's bytes, which are
// persisted in tunedb store keys and checkpoint fingerprints.
func referenceKey(c Config) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func TestConfigKeyMatchesReference(t *testing.T) {
	long := make(Config, 40) // renders past Key's stack buffer
	for i := range long {
		long[i] = math.MaxInt64 - int64(i)
	}
	for _, c := range []Config{
		nil, {}, {0}, {7}, {32, 64}, {32, 64, 128}, {32, 64, 128, 40}, {32, 64, 128, 40, 8},
		{-1}, {-1, -22, 0, 333}, {math.MinInt64}, {math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
		long,
	} {
		if got, want := c.Key(), referenceKey(c); got != want {
			t.Errorf("Key(%v) = %q, reference %q", []int64(c), got, want)
		}
		// AppendKey extends what the buffer holds and nothing else.
		if got, want := string(c.AppendKey([]byte("1,2 "))), "1,2 "+referenceKey(c); got != want {
			t.Errorf("AppendKey(%v) = %q, want %q", []int64(c), got, want)
		}
	}
}

func FuzzConfigKeyMatchesReference(f *testing.F) {
	f.Add(int64(32), int64(64), int64(128), int64(40), uint8(4))
	f.Add(int64(math.MinInt64), int64(-1), int64(0), int64(math.MaxInt64), uint8(9))
	f.Fuzz(func(t *testing.T, a, b, c, d int64, n uint8) {
		cfg := Config{a, b, c, d, a ^ b, b ^ c, c ^ d, d ^ a, a + b, b + c, c + d, d + a}[:n%13]
		if got, want := cfg.Key(), referenceKey(cfg); got != want {
			t.Fatalf("Key(%v) = %q, reference %q", []int64(cfg), got, want)
		}
	})
}

func TestConfigKeyAllocationBudget(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := Config{32, 64, 128, 40}
	if a := testing.AllocsPerRun(100, func() { keySink = cfg.Key() }); a > 1 {
		t.Errorf("Config.Key allocates %v times per call, want at most 1 (the string)", a)
	}
}

var keySink string

func BenchmarkConfigKey(b *testing.B) {
	cfg := Config{32, 64, 128, 40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = cfg.Key()
	}
}
