package roughset

import (
	"slices"
	"testing"
	"testing/quick"

	"autotune/internal/pareto"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

func space2() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "p1", Min: 0, Max: 100},
		{Name: "p2", Min: 0, Max: 100},
	}}
}

func TestReduceBasicWalls(t *testing.T) {
	s := space2()
	nonDom := []skeleton.Config{{40, 50}, {50, 40}}
	dom := []skeleton.Config{{10, 10}, {90, 90}, {30, 60}, {70, 20}}
	box := Reduce(s, nonDom, dom)
	// Dim 0: nd extent [40,50]; walls: below 40 -> max(10,30)=30;
	// above 50 -> min(90,70)=70.
	if box.Lo[0] != 30 || box.Hi[0] != 70 {
		t.Errorf("dim0 = [%d,%d], want [30,70]", box.Lo[0], box.Hi[0])
	}
	// Dim 1: nd extent [40,50]; below: max(10,20)=20; above: min(90,60)=60.
	if box.Lo[1] != 20 || box.Hi[1] != 60 {
		t.Errorf("dim1 = [%d,%d], want [20,60]", box.Lo[1], box.Hi[1])
	}
}

func TestReduceWallOnBoundaryOfExtent(t *testing.T) {
	// A dominated point sharing a coordinate with the non-dominated
	// extent becomes the wall (<= / >= comparison keeps it inside).
	s := space2()
	nonDom := []skeleton.Config{{40, 40}}
	dom := []skeleton.Config{{40, 80}, {80, 40}}
	box := Reduce(s, nonDom, dom)
	if box.Lo[0] != 40 || box.Lo[1] != 40 {
		t.Errorf("walls = %v, want both 40", box.Lo)
	}
	if !inBox(box, skeleton.Config{40, 40}) {
		t.Error("box must contain the non-dominated point")
	}
}

func TestReduceNoDominatedOrNoNonDominated(t *testing.T) {
	s := space2()
	full := s.FullBox()
	got := Reduce(s, nil, []skeleton.Config{{1, 1}})
	if got.Lo[0] != full.Lo[0] || got.Hi[1] != full.Hi[1] {
		t.Error("no non-dominated: expected full box")
	}
	got = Reduce(s, []skeleton.Config{{1, 1}}, nil)
	if got.Lo[0] != full.Lo[0] || got.Hi[1] != full.Hi[1] {
		t.Error("no dominated: expected full box")
	}
}

func TestReduceNeverExcludesNonDominated(t *testing.T) {
	s := space2()
	rng := stats.NewRand(11)
	for trial := 0; trial < 200; trial++ {
		var nonDom, dom []skeleton.Config
		for i := 0; i < 5; i++ {
			nonDom = append(nonDom, s.Random(rng))
		}
		for i := 0; i < 12; i++ {
			dom = append(dom, s.Random(rng))
		}
		box := Reduce(s, nonDom, dom)
		for _, c := range nonDom {
			if !inBox(box, c) {
				t.Fatalf("trial %d: box %v excludes non-dominated %v", trial, box, c)
			}
		}
		// Box stays within the space.
		full := s.FullBox()
		for dim := range box.Lo {
			if box.Lo[dim] < full.Lo[dim] || box.Hi[dim] > full.Hi[dim] {
				t.Fatalf("box escapes space: %v", box)
			}
		}
	}
}

func TestSplit(t *testing.T) {
	cfgs := []skeleton.Config{{1}, {2}, {3}, {4}}
	objs := [][]float64{
		{1, 5},
		{2, 2},
		{3, 3}, // dominated by {2,2}
		nil,    // failed evaluation
	}
	nonDom, dom := Split(cfgs, objs, pareto.Dominates)
	if len(nonDom) != 2 || len(dom) != 2 {
		t.Fatalf("split = %d/%d, want 2/2", len(nonDom), len(dom))
	}
	if !slices.Equal(nonDom[0], skeleton.Config{1}) || !slices.Equal(nonDom[1], skeleton.Config{2}) {
		t.Errorf("nonDom = %v", nonDom)
	}
	if !slices.Equal(dom[0], skeleton.Config{3}) || !slices.Equal(dom[1], skeleton.Config{4}) {
		t.Errorf("dom = %v", dom)
	}
}

func TestSplitAllNonDominated(t *testing.T) {
	cfgs := []skeleton.Config{{1}, {2}}
	objs := [][]float64{{1, 2}, {2, 1}}
	nonDom, dom := Split(cfgs, objs, pareto.Dominates)
	if len(nonDom) != 2 || len(dom) != 0 {
		t.Fatalf("split = %d/%d", len(nonDom), len(dom))
	}
}

// Property: Split conserves the population and the reduced box always
// contains the non-dominated subset.
func TestSplitReduceProperty(t *testing.T) {
	s := space2()
	f := func(seed int64, n uint8) bool {
		rng := stats.NewRand(seed)
		count := int(n%20) + 2
		cfgs := make([]skeleton.Config, count)
		objs := make([][]float64, count)
		for i := range cfgs {
			cfgs[i] = s.Random(rng)
			objs[i] = []float64{rng.Float64(), rng.Float64()}
		}
		nonDom, dom := Split(cfgs, objs, pareto.Dominates)
		if len(nonDom)+len(dom) != count {
			return false
		}
		if len(nonDom) == 0 {
			return false // at least one point is always non-dominated
		}
		box := Reduce(s, nonDom, dom)
		for _, c := range nonDom {
			if !inBox(box, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// InBox is inBox for the external oracle tests.
var InBox = inBox

// inBox reports whether c lies within b, bounds included.
func inBox(b skeleton.Box, c skeleton.Config) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i, v := range c {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}
