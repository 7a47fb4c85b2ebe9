package optimizer

// Allocation budgets and benchmarks for what a generation does around
// its evaluations: ranking, truncation, mutation and one whole step of
// each strategy over a stub evaluator that costs (almost) nothing, so
// the numbers are the optimizer's own.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"autotune/internal/israce"
	"autotune/internal/skeleton"
	"autotune/internal/stats"
)

// tableEvaluator is a stub evaluator: a configuration's objectives are
// read from a fixed table of vectors, the result slice is reused, and
// nothing is cached or counted — zero allocations per call.
type tableEvaluator struct {
	table [][]float64
	out   [][]float64
}

func newTableEvaluator(nObjs int) *tableEvaluator {
	rng := rand.New(rand.NewSource(7))
	e := &tableEvaluator{table: make([][]float64, 1021)}
	for i := range e.table {
		v := make([]float64, nObjs)
		for d := range v {
			v[d] = float64(rng.Intn(400)) / 4 // coarse: ties and duplicates occur
		}
		e.table[i] = v
	}
	return e
}

func (e *tableEvaluator) Evaluate(cfgs []skeleton.Config) [][]float64 {
	e.out = sized(e.out, len(cfgs))
	for i, c := range cfgs {
		h := uint64(17)
		for _, v := range c {
			h = h*1099511628211 + uint64(v)
		}
		e.out[i] = e.table[h%uint64(len(e.table))]
	}
	return e.out
}

func (e *tableEvaluator) ObjectiveNames() []string {
	return []string{"f1", "f2", "f3"}[:len(e.table[0])]
}
func (e *tableEvaluator) Evaluations() int { return 0 }

// benchSpace is shaped like the mm search space: three tile sizes and a
// thread count.
func benchSpace() skeleton.Space {
	return skeleton.Space{Params: []skeleton.Param{
		{Name: "t1", Min: 1, Max: 700}, {Name: "t2", Min: 1, Max: 700}, {Name: "t3", Min: 1, Max: 700},
		{Name: "threads", Min: 1, Max: 40},
	}}
}

// benchPopulation is n evaluated random members of benchSpace.
func benchPopulation(n, nObjs int) []individual {
	space, eval := benchSpace(), newTableEvaluator(nObjs)
	rng := rand.New(rand.NewSource(int64(n*10 + nObjs)))
	pop := make([]individual, n)
	for i := range pop {
		cfg := space.Random(rng)
		pop[i] = individual{cfg: cfg, objs: eval.Evaluate([]skeleton.Config{cfg})[0]}
	}
	return pop
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
}

// TestSelectionAllocationBudget: on an arena that has seen the
// population's size once, ranking, crowding, truncation and the
// population split allocate nothing — for the sweep and for the general
// path — and picking indices never does.
func TestSelectionAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	for _, nObjs := range []int{2, 3} {
		pop := benchPopulation(60, nObjs)
		var a arena
		buf := make([]individual, 0, 30)
		front := append([]int(nil), a.nonDominatedSort(pop)[0]...)
		cases := map[string]func(){
			"nonDominatedSort": func() { a.nonDominatedSort(pop) },
			"crowdingDistance": func() { a.crowdingDistance(pop, front) },
			"truncate":         func() { buf = a.truncate(pop, 30, buf) },
			"orderBestToWorst": func() { a.orderBestToWorst(pop) },
			"splitPop":         func() { a.splitPop(pop) },
		}
		for name, fn := range cases {
			fn() // warm the arena
			if got := testing.AllocsPerRun(50, fn); got != 0 {
				t.Errorf("%s over 60 members, %d objectives: %v allocations on a warm arena, want 0", name, nObjs, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	var idx [3]int
	if got := testing.AllocsPerRun(100, func() { pickDistinct(rng, 30, 4, idx[:]) }); got != 0 {
		t.Errorf("pickDistinct: %v allocations, want 0", got)
	}
}

// TestMutateAllocationBudget: a trial written into a slab with room for
// it costs no allocation.
func TestMutateAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	pop := benchPopulation(30, 2)
	space := benchSpace()
	rng := rand.New(rand.NewSource(1))
	opt := Options{}.withDefaults()
	var a arena
	slab := make(skeleton.Config, 0, space.Dim())
	a.mutate(slab, pop[0].cfg, pop, 0, space.FullBox(), opt, rng)
	box := space.FullBox()
	if got := testing.AllocsPerRun(100, func() { slab = a.mutate(slab[:0], pop[3].cfg, pop, 3, box, opt, rng) }); got != 0 {
		t.Errorf("mutate into a slab: %v allocations, want 0", got)
	}
	if !inBox(box, slab) {
		t.Fatalf("mutant %v escaped the box", slab)
	}
}

// benchGDEIsland is a 30-member RS-GDE3 island over the stub
// evaluator, stepped a few times so its arena and archive are warm.
func benchGDEIsland(tb testing.TB) *gdeIsland {
	tb.Helper()
	opt := Options{Seed: 3, Stagnation: 1 << 30}.withDefaults()
	g := newGDEIsland(benchSpace(), newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed))
	for i := 0; i < 5; i++ {
		g.step()
	}
	return g
}

// TestGDEStepAllocationBudget: a warm generation allocates nothing,
// whatever it offers the archive. The trial list and the slab the
// offspring are drawn into belong to the island's arena, and so do the
// two member slabs its survivors are copied into; RS-GDE3 used to
// allocate the list and the slab every generation, NSGA-II a clone of
// every child and a second one to clip it. What is left is rare on a
// warm island and under one allocation a generation on average: a
// configuration the archive keeps is copied into a chunk and boxed into
// a Point, and the rough-set box is recomputed after an improving
// generation. The byte bound holds that average.
func TestGDEStepAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	opt := Options{Seed: 3, Stagnation: 1 << 30}.withDefaults()
	n := newNSGA2Island(benchSpace(), newTableEvaluator(2), opt, opt.Seed)
	for i := 0; i < 5; i++ {
		n.step()
	}
	for _, c := range []struct {
		name string
		step func()
	}{
		{"RS-GDE3", benchGDEIsland(t).step},
		{"NSGA-II", n.step},
	} {
		perStep := testing.AllocsPerRun(50, c.step)
		bytes := bytesPerRun(50, c.step)
		if perStep > 0 || bytes > 128 {
			t.Errorf("one %s generation over 30 members allocates %v times and %.0f bytes, budget 0 and 128", c.name, perStep, bytes)
		} else {
			t.Logf("one %s generation over 30 members allocates %v times and %.0f bytes", c.name, perStep, bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates on average over runs calls, after one warm-up call, at
// GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// nopCheckpointer drops every snapshot it is handed.
type nopCheckpointer struct{}

func (nopCheckpointer) Save(*Snapshot) error { return nil }

// TestSnapshotAllocationBudget: checkpointing a generation — tracing
// its evaluated batch and snapshotting the island — allocates the same
// handful of times at population 30 and at 120: every configuration and
// objective vector is cut from slabs sized once per batch and per
// island, and the trace's buffer starts at the last generation's size.
func TestSnapshotAllocationBudget(t *testing.T) {
	skipUnderRace(t)
	perGen := map[int]float64{}
	for _, n := range []int{30, 120} {
		opt := Options{PopSize: n, Seed: 3, Stagnation: 1 << 30}.withDefaults()
		g := newGDEIsland(benchSpace(), newTableEvaluator(2), opt, stats.NewCountedRand(opt.Seed))
		for i := 0; i < 5; i++ {
			g.step()
		}
		cfgs, objs := make([]skeleton.Config, n), make([][]float64, n)
		for i, ind := range g.pop {
			cfgs[i], objs[i] = ind.cfg, ind.objs
		}
		r := &controlledRun{eval: newTableEvaluator(2), ctrl: Control{Checkpointer: nopCheckpointer{}}, trace: &evalTrace{}}
		islands := []islandEvolver{g}
		generation := func() {
			r.trace.record(cfgs, nil, objs)
			if err := r.save(islands, 1); err != nil {
				t.Fatal(err)
			}
		}
		generation()
		perGen[n] = testing.AllocsPerRun(20, generation)
	}
	if perGen[30] != perGen[120] || perGen[30] > 10 {
		t.Fatalf("checkpointing a generation allocates %v times at population 30 and %v at 120, want the same, at most 10", perGen[30], perGen[120])
	}
	t.Logf("%v allocations per checkpointed generation", perGen[30])
}

var rankSink [][]int

func benchmarkNonDominatedSort(b *testing.B, n, nObjs int) {
	pop := benchPopulation(n, nObjs)
	var a arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = a.nonDominatedSort(pop)
	}
}

func BenchmarkNonDominatedSort2Obj60(b *testing.B)   { benchmarkNonDominatedSort(b, 60, 2) }
func BenchmarkNonDominatedSort3Obj60(b *testing.B)   { benchmarkNonDominatedSort(b, 60, 3) }
func BenchmarkNonDominatedSort2Obj1000(b *testing.B) { benchmarkNonDominatedSort(b, 1000, 2) }

// BenchmarkNonDominatedSortReference is the peel the sweep replaced, on
// the same populations.
func BenchmarkNonDominatedSortReference(b *testing.B) {
	for _, c := range []struct{ n, nObjs int }{{60, 2}, {60, 3}, {1000, 2}} {
		b.Run(fmt.Sprintf("%dObj%d", c.nObjs, c.n), func(b *testing.B) {
			pop := benchPopulation(c.n, c.nObjs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rankSink = refNonDominatedSort(pop)
			}
		})
	}
}

func BenchmarkTruncate(b *testing.B) {
	pop := benchPopulation(60, 2)
	var a arena
	buf := make([]individual, 0, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.truncate(pop, 30, buf)
	}
}

func BenchmarkGDEStep(b *testing.B) {
	g := benchGDEIsland(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.step()
	}
}

func BenchmarkNSGA2Step(b *testing.B) {
	space := benchSpace()
	opt := Options{Seed: 3, Stagnation: 1 << 30}.withDefaults()
	n := newNSGA2Island(space, newTableEvaluator(2), opt, opt.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step()
	}
}

// BenchmarkMOTPEStep steps a sampler that already holds ~1000
// observations, the size a default search ends at: the cost is the
// re-rank of every observation plus Parzen scoring against them.
func BenchmarkMOTPEStep(b *testing.B) {
	opt := Options{Seed: 3, Stagnation: 1 << 30}.withDefaults()
	fresh := func() *motpeIsland {
		m := newMOTPEIsland(benchSpace(), newTableEvaluator(2), opt, opt.Seed)
		for len(m.pop) < 1000 {
			m.step()
		}
		return m
	}
	m := fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.pop) > 1300 { // keep the history at the size being measured
			b.StopTimer()
			m = fresh()
			b.StartTimer()
		}
		m.step()
	}
}
