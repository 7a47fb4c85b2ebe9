package driver

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"autotune/internal/machine"
	"autotune/internal/objective"
	"autotune/internal/optimizer"
	"autotune/internal/testenv"
	"autotune/internal/tunedb"
)

// TestProblemKeyMatchesJournaledKey: ProblemKey must derive exactly the
// key TuneKernel journals under, or service-side dedup would miss the
// warm-start data the search itself stores.
func TestProblemKeyMatchesJournaledKey(t *testing.T) {
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	opt := Options{
		Machine:   machine.Westmere(),
		DB:        db,
		Optimizer: optimizer.Options{PopSize: 8, Seed: 3, MaxIterations: 2},
	}
	key, err := ProblemKey("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TuneKernel("mm", opt); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Front(key); !ok {
		t.Fatalf("no stored front under ProblemKey %s; stored keys: %v", key, storedKeys(t, db))
	}
	if evalCount(t, db, key) == 0 {
		t.Fatalf("no stored evaluations under ProblemKey %s", key)
	}
}

// TestProblemKeyDiscriminates: the key must separate problems that a
// shared search may not conflate, and only those.
func TestProblemKeyDiscriminates(t *testing.T) {
	base := Options{Machine: machine.Westmere()}
	ref, err := ProblemKey("mm", base)
	if err != nil {
		t.Fatal(err)
	}
	same, err := ProblemKey("mm", Options{Machine: machine.Westmere(), Optimizer: optimizer.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if same != ref {
		t.Fatalf("seed changed the problem key: %s vs %s", same, ref)
	}
	variants := map[string]Options{
		"machine": {Machine: machine.Barcelona()},
		"size":    {Machine: machine.Westmere(), N: 128},
		"energy":  {Machine: machine.Westmere(), Objectives: []objective.ObjectiveKind{objective.TimeObjective, objective.ResourceObjective, objective.EnergyObjective}},
		"unroll":  {Machine: machine.Westmere(), UnrollDim: true},
		"noise":   {Machine: machine.Westmere(), NoiseAmp: 0.05},
	}
	for name, o := range variants {
		k, err := ProblemKey("mm", o)
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Errorf("%s variant did not change the problem key", name)
		}
	}
	other, err := ProblemKey("2mm", base)
	if err != nil {
		t.Fatal(err)
	}
	if other == ref {
		t.Error("different kernel did not change the problem key")
	}
	if _, err := ProblemKey("mm", Options{}); err == nil {
		t.Error("missing machine accepted")
	}
	if _, err := ProblemKey("no-such-kernel", base); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestWithProgressReportsEveryEvaluation: the OnProgress hook fires
// once per evaluated batch — the initial population and each
// generation, not each evaluation — with a strictly growing cumulative
// count that ends at the result's evaluation total.
func TestWithProgressReportsEveryEvaluation(t *testing.T) {
	var counts []int
	opt := Options{
		Machine:    machine.Westmere(),
		Optimizer:  optimizer.Options{PopSize: 8, Seed: 7, MaxIterations: 3},
		OnProgress: func(done int) { counts = append(counts, done) }, // one island: calls are sequential
	}
	out, err := TuneKernel("mm", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 || len(counts) > out.Result.Iterations+1 {
		t.Fatalf("progress fired %d times for %d generations after the initial population: %v",
			len(counts), out.Result.Iterations, counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("progress counts not strictly growing: %v", counts)
		}
	}
	if last := counts[len(counts)-1]; last != out.Result.Evaluations {
		t.Fatalf("last progress %d != evaluations %d", last, out.Result.Evaluations)
	}
}

// TestProgressSequencesPinned holds the OnProgress count sequence — one
// count per evaluated batch, so it records how each search batches its
// evaluations — of a brute-force sweep of the default grid and of a
// default race byte-identical to testdata/progress.json. -update
// regenerates it.
func TestProgressSequencesPinned(t *testing.T) {
	got := map[string][]int{}
	for _, c := range []struct{ id, kernel string }{
		{"brute-force/default-grid/jacobi-2d/Westmere/seed1", "jacobi-2d"},
		{"race/default/mm/Westmere/seed1", "mm"},
	} {
		var counts []int
		method, _, _ := strings.Cut(c.id, "/")
		opt := Options{
			Machine:    machine.Westmere(),
			Method:     Method(method),
			Optimizer:  optimizer.Options{Seed: 1},
			NoiseAmp:   0.01,
			OnProgress: func(done int) { counts = append(counts, done) }, // one search steps at a time
		}
		if _, err := TuneKernel(c.kernel, opt); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		got[c.id] = counts
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	testenv.Pin(t, "testdata/progress.json", append(data, '\n'))
}

// TestEveryOptionFieldIsClassified walks Options by reflection: every
// field is in the table below exactly once, as shaping the problem (what
// the evaluator computes), the search (how the space is explored) or as
// run control (where and how long, never what). A problem field moves
// the tuning-database key, and with it the tag a checkpoint carries; no
// other field moves either, so neither a stored front nor a checkpoint
// is ever refused over how it was searched for. A field added to
// Options fails here until someone decides what it shapes — and, if it
// is the problem, puts it in (*prepared).key.
func TestEveryOptionFieldIsClassified(t *testing.T) {
	const (
		problem = "problem"
		// tagOnly shapes the values of one run but not what a database
		// may share between runs: medians of real timings at 3 or 5
		// repetitions are interchangeable measurements of one problem,
		// while simulated noise is deterministic, which is why NoiseAmp
		// moves the key.
		tagOnly = "problem, checkpoint tag only"
		search  = "search"
		control = "run control"
	)
	db, err := tunedb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	table := map[string]struct {
		class string
		set   func(*Options)
	}{
		"Machine":  {problem, func(o *Options) { o.Machine = machine.Barcelona() }},
		"N":        {problem, func(o *Options) { o.N = 96 }},
		"NoiseAmp": {problem, func(o *Options) { o.NoiseAmp = 0.05 }},
		"Objectives": {problem, func(o *Options) {
			o.Objectives = []objective.ObjectiveKind{objective.TimeObjective, objective.EnergyObjective}
		}},
		"Measured":     {problem, func(o *Options) { o.Measured = true }},
		"MeasuredReps": {tagOnly, func(o *Options) { o.MeasuredReps = 5 }},
		"UnrollDim":    {problem, func(o *Options) { o.UnrollDim = true }},

		"Method":            {search, func(o *Options) { o.Method = MethodNSGA2 }},
		"Optimizer":         {search, func(o *Options) { o.Optimizer = optimizer.Options{PopSize: 7, Seed: 7} }},
		"Islands":           {search, func(o *Options) { o.Islands = 3 }},
		"MigrationInterval": {search, func(o *Options) { o.MigrationInterval = 3 }},
		"RandomBudget":      {search, func(o *Options) { o.RandomBudget = 70 }},
		"Race":              {search, func(o *Options) { o.Race = RaceOptions{Budget: 70} }},
		"GridPoints":        {search, func(o *Options) { o.GridPoints = []int{3, 3, 3, 3} }},
		"Surrogate":         {search, func(o *Options) { o.Surrogate = true }},
		"ScreenTopK":        {search, func(o *Options) { o.ScreenTopK = 3 }},
		"WarmStart":         {search, func(o *Options) { o.WarmStart = true }},

		"DB":             {control, func(o *Options) { o.DB = db }},
		"Context":        {control, func(o *Options) { o.Context = context.Background() }},
		"EvalTimeout":    {control, func(o *Options) { o.EvalTimeout = time.Second }},
		"CheckpointPath": {control, func(o *Options) { o.CheckpointPath = "a.ckpt" }},
		"ResumeFrom":     {control, func(o *Options) { o.ResumeFrom = "b.ckpt" }},
		"OnProgress":     {control, func(o *Options) { o.OnProgress = func(int) {} }},
	}
	// bases sets up the base a field is set on when the simulated one
	// ignores it: the repetition count is the measured evaluator's.
	bases := map[string]func(*Options){
		"MeasuredReps": func(o *Options) { o.Measured = true },
	}
	keyAndTag := func(opt Options) (tunedb.Key, string) {
		t.Helper()
		key, err := ProblemKey("mm", opt)
		if err != nil {
			t.Fatal(err)
		}
		return key, problemTag(key, opt)
	}
	base := Options{Machine: machine.Westmere()}
	baseKey, baseTag := keyAndTag(base)
	typ := reflect.TypeOf(base)
	if len(table) != typ.NumField() {
		t.Errorf("the table classifies %d fields, Options has %d", len(table), typ.NumField())
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		c, ok := table[name]
		if !ok {
			t.Errorf("Options.%s is not classified: decide whether it shapes the problem, the search, or is run control", name)
			continue
		}
		from, fromKey, fromTag := base, baseKey, baseTag
		if onBase, ok := bases[name]; ok {
			onBase(&from)
			fromKey, fromTag = keyAndTag(from)
		}
		opt := from
		c.set(&opt)
		if reflect.DeepEqual(reflect.ValueOf(opt).Field(i).Interface(), reflect.ValueOf(from).Field(i).Interface()) {
			t.Errorf("%s: the table's setter does not set the field", name)
		}
		key, tag := keyAndTag(opt)
		moved := key != fromKey || tag != fromTag
		switch c.class {
		case problem:
			if key == fromKey {
				t.Errorf("%s shapes the problem and does not move the tuning-database key", name)
			}
		case tagOnly:
			if key != fromKey || tag == fromTag {
				t.Errorf("%s must move the checkpoint tag and not the tuning-database key", name)
			}
		case search, control:
			if moved {
				t.Errorf("%s is %s and moves the tuning-database key or the checkpoint tag", name, c.class)
			}
		default:
			t.Errorf("%s: unknown class %q", name, c.class)
		}
	}
}
