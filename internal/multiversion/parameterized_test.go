package multiversion

import (
	"testing"
)

func TestFromUnitAndInvoke(t *testing.T) {
	u := sampleUnit()
	var gotTiles []int64
	var gotThreads int
	p, err := FromUnit(u, func(tiles []int64, threads int) error {
		gotTiles, gotThreads = tiles, threads
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Metas) != 3 || p.Region != u.Region {
		t.Fatalf("parameterized = %+v", p)
	}
	if err := p.Invoke(1); err != nil {
		t.Fatal(err)
	}
	if gotThreads != 10 || len(gotTiles) != 3 || gotTiles[0] != 32 {
		t.Fatalf("entry got %v/%d", gotTiles, gotThreads)
	}
	if err := p.Invoke(9); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestFromUnitValidation(t *testing.T) {
	u := sampleUnit()
	if _, err := FromUnit(u, nil); err == nil {
		t.Error("nil entry accepted")
	}
	bad := sampleUnit()
	bad.Versions = nil
	if _, err := FromUnit(bad, func([]int64, int) error { return nil }); err == nil {
		t.Error("invalid unit accepted")
	}
}

func TestInvokeConfigBeyondParetoSet(t *testing.T) {
	u := sampleUnit()
	var seen []int64
	p, _ := FromUnit(u, func(tiles []int64, threads int) error {
		seen = tiles
		return nil
	})
	// A configuration not in the table — parameterization's advantage.
	if err := p.InvokeConfig([]int64{48, 48, 48}, 5); err != nil {
		t.Fatal(err)
	}
	if seen[0] != 48 {
		t.Fatal("custom config not forwarded")
	}
	if err := p.InvokeConfig(nil, 0); err == nil {
		t.Error("invalid thread count accepted")
	}
}
