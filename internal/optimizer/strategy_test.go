package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"autotune/internal/skeleton"
)

func TestStrategyNamesSortedAndComplete(t *testing.T) {
	want := []string{"brute-force", "gde3", "grid", "motpe", "nsga2", "random", "rs-gde3"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("%s not registered: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("registry returned %q for %q", s.Name, name)
		}
	}
}

func TestStrategyByNameUnknown(t *testing.T) {
	_, err := StrategyByName("alien")
	if err == nil {
		t.Fatal("unknown strategy resolved")
	}
	// The error must list the valid names, sorted and deduplicated, so
	// the CLI can surface them verbatim (see cmd/autotune).
	msg := err.Error()
	names := StrategyNames()
	last := -1
	for _, name := range names {
		at := strings.Index(msg, name)
		if at < 0 {
			t.Fatalf("error %q does not mention %q", msg, name)
		}
		if at < last {
			t.Fatalf("error %q lists strategies out of sorted order", msg)
		}
		last = at
	}
	for _, name := range names {
		if strings.Count(msg, " "+name) > 1 {
			t.Fatalf("error %q lists %q more than once", msg, name)
		}
	}
}

func TestRegisterStrategyRejectsDuplicatesAndIncomplete(t *testing.T) {
	mustPanic := func(name string, s Strategy) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: registerStrategy did not panic", name)
			}
		}()
		registerStrategy(s)
	}
	dup, err := StrategyByName("gde3")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("duplicate", dup)
	mustPanic("incomplete", Strategy{Name: "test-incomplete"})
}

func TestWalkerChunkFollowsPopSize(t *testing.T) {
	strat, err := StrategyByName("random")
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(cfg StrategyConfig) int {
		return strat.New(schafferSpace(), newFuncEvaluator(schaffer), cfg, 1).(*walker).chunk
	}
	if got := chunk(strat.Normalize(schafferSpace(), StrategyConfig{})); got != 30 {
		t.Fatalf("default chunk = %d, want the default PopSize 30", got)
	}
	cfg := strat.Normalize(schafferSpace(), StrategyConfig{Options: Options{PopSize: 10}, RandomBudget: 25})
	if got := chunk(cfg); got != 10 {
		t.Fatalf("chunk = %d, want PopSize 10", got)
	}
	// The registered generation cap must agree with the chunking, or a
	// raced random contender would stop before its budget is spent.
	if got := strat.MaxGenerations(cfg); got != 3 {
		t.Fatalf("MaxGenerations = %d, want ceil(25/10) = 3", got)
	}
}

func TestIslandOptionsClampMigrantsToHalfPopulation(t *testing.T) {
	// Regression: Migrants >= PopSize used to let one migration wave
	// replace an entire island's population.
	base := IslandOptions{Islands: 2, MigrationInterval: 1}

	at := base
	at.Migrants = 8 // == PopSize: the boundary case
	if got := at.withDefaults(8).Migrants; got != 4 {
		t.Fatalf("Migrants == PopSize clamped to %d, want half the population (4)", got)
	}
	over := base
	over.Migrants = 100
	if got := over.withDefaults(8).Migrants; got != 4 {
		t.Fatalf("Migrants > PopSize clamped to %d, want 4", got)
	}
	tiny := base
	tiny.Migrants = 5
	if got := tiny.withDefaults(1).Migrants; got != 1 {
		t.Fatalf("single-member population clamped to %d, want 1", got)
	}
	within := base
	within.Migrants = 2
	if got := within.withDefaults(8).Migrants; got != 2 {
		t.Fatalf("in-range Migrants rewritten to %d, want 2 untouched", got)
	}
}

func TestIslandsSurviveMigrantsEqualPopSize(t *testing.T) {
	res, err := Run(schafferSpace(), newFuncEvaluator(schaffer), Spec{Strategy: "rs-gde3",
		Config:  StrategyConfig{Options: Options{PopSize: 6, MaxIterations: 4, Stagnation: 5, Seed: 1}},
		Islands: &IslandOptions{Islands: 2, MigrationInterval: 1, Migrants: 6}}, Control{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front after boundary-migration run")
	}
}

func TestRandomWalkerSeedsWarmStartFirst(t *testing.T) {
	space := schafferSpace()
	cfg := StrategyConfig{
		Options: Options{
			Seed: 1,
			// One seed of the wrong dimension (skipped), one valid.
			InitialPopulation: []skeleton.Config{{1}, {150, 5}},
		},
		RandomBudget: 8,
	}
	cfgs := randomWalk(space, cfg, 1)
	if len(cfgs) != 8 {
		t.Fatalf("pre-drew %d configurations, want the budget of 8", len(cfgs))
	}
	if !reflect.DeepEqual(cfgs[0], skeleton.Config{150, 5}) {
		t.Fatalf("first proposal %v, want the warm-start seed", cfgs[0])
	}
	for _, c := range cfgs {
		if len(c) != space.Dim() {
			t.Fatalf("proposal %v has wrong dimension", c)
		}
	}
}

// A negative PopSize used to die in makeslice (and a negative
// Stagnation or MaxIterations ran zero generations) in every search
// that sizes itself from Options; each entry point refuses all three.
func TestNegativeSizesRefused(t *testing.T) {
	for field, opt := range map[string]Options{
		"PopSize":       {PopSize: -1},
		"Stagnation":    {Stagnation: -1},
		"MaxIterations": {MaxIterations: -1},
	} {
		entries := map[string]func() error{
			"Run/race": func() error {
				_, err := Run(schafferSpace(), newFuncEvaluator(schaffer), Spec{Config: StrategyConfig{Options: opt}, Race: &RaceOptions{}}, Control{})
				return err
			},
		}
		for _, name := range StrategyNames() {
			entries["Run/"+name] = func() error {
				_, err := search(name, schafferSpace(), newFuncEvaluator(schaffer), opt)
				return err
			}
		}
		for entry, run := range entries {
			if err := run(); err == nil || !strings.Contains(err.Error(), field+" -1") {
				t.Errorf("%s with %s = -1: error %v", entry, field, err)
			}
		}
	}
}

// TestEveryOptionFieldIsInTheFingerprintOfWhoeverReadsIt walks Options,
// NSGA2Options and IslandOptions by reflection. The table names, for
// every field, the checkpointing strategies that read it; set to a
// non-default value, the field moves the Fingerprint of exactly those —
// Run's own computation, normalization included — so a checkpoint is
// never resumed under an option its strategy reads and never refused
// over one it ignores. A field added to any of the three structs fails
// here until it is in the table, and in the fingerprints of its readers.
func TestEveryOptionFieldIsInTheFingerprintOfWhoeverReadsIt(t *testing.T) {
	all := []string{"gde3", "motpe", "nsga2", "rs-gde3"}
	gde := []string{"gde3", "rs-gde3"}
	islands := []string{"gde3", "nsga2", "rs-gde3"} // the strategies Run accepts Spec.Islands for
	readBy := map[string][]string{
		"Options.PopSize":       all,
		"Options.CR":            gde,
		"Options.F":             gde,
		"Options.Stagnation":    all,
		"Options.MaxIterations": all,
		"Options.Seed":          all,
		// "gde3" is rs-gde3 with the rough set off: the field cannot
		// move what the name already fixes.
		"Options.DisableRoughSet": {"rs-gde3"},
		// Read at generation 0 only, which every snapshot holds: a
		// resume reads the seeds from there, so none fingerprints them.
		"Options.InitialPopulation": {},

		"NSGA2Options.Seed": {"nsga2"},

		"IslandOptions.Islands":           islands,
		"IslandOptions.MigrationInterval": islands,
		"IslandOptions.Migrants":          islands,
	}
	space := schafferSpace()
	// setNonDefault gives a field a value no default and no other field's
	// test value produces.
	setNonDefault := func(f reflect.Value) {
		switch f.Interface().(type) {
		case int, int64:
			f.SetInt(7)
		case float64:
			f.SetFloat(0.25)
		case bool:
			f.SetBool(true)
		case []skeleton.Config:
			f.Set(reflect.ValueOf([]skeleton.Config{{3, 4}}))
		default:
			t.Fatalf("setNonDefault cannot set a %s: teach it", f.Type())
		}
	}
	// fingerprint is what Run hands newControlledRun for spec.
	fingerprint := func(strat Strategy, spec Spec) string {
		cfg := strat.Normalize(space, spec.Config)
		w, iopt := 1, IslandOptions{}
		if spec.Islands != nil {
			iopt = spec.Islands.withDefaults(cfg.Options.PopSize)
			w = iopt.Islands
		}
		return strat.Fingerprint(space, cfg, w, iopt)
	}
	// The three structs, each with the way to its copy inside a Spec.
	structs := []struct {
		typ reflect.Type
		in  func(*Spec) reflect.Value
	}{
		{reflect.TypeOf(Options{}), func(s *Spec) reflect.Value { return reflect.ValueOf(&s.Config.Options).Elem() }},
		{reflect.TypeOf(NSGA2Options{}), func(s *Spec) reflect.Value { return reflect.ValueOf(&s.Config.NSGA2).Elem() }},
		{reflect.TypeOf(IslandOptions{}), func(s *Spec) reflect.Value {
			own := *s.Islands
			s.Islands = &own
			return reflect.ValueOf(s.Islands).Elem()
		}},
	}
	fields := 0
	for _, st := range structs {
		fields += st.typ.NumField()
		for i := 0; i < st.typ.NumField(); i++ {
			if field := st.typ.Name() + "." + st.typ.Field(i).Name; readBy[field] == nil {
				t.Errorf("%s is not classified: name the strategies that read it, and put it in their fingerprints", field)
			}
		}
	}
	if fields != len(readBy) {
		t.Errorf("the table classifies %d fields, the three structs have %d", len(readBy), fields)
	}
	for _, name := range StrategyNames() {
		strat, _ := StrategyByName(name)
		if strat.Restore == nil {
			continue // no checkpoint, no fingerprint
		}
		base := Spec{Strategy: name}
		if strat.Islands {
			base.Islands = &IslandOptions{}
		}
		baseFP := fingerprint(strat, base)
		for _, st := range structs {
			if st.typ == reflect.TypeOf(IslandOptions{}) && !strat.Islands {
				continue // Run refuses the struct whole for this strategy
			}
			for i := 0; i < st.typ.NumField(); i++ {
				field := st.typ.Name() + "." + st.typ.Field(i).Name
				spec := base
				setNonDefault(st.in(&spec).Field(i))
				reads := false
				for _, r := range readBy[field] {
					reads = reads || r == name
				}
				if moved := fingerprint(strat, spec) != baseFP; moved != reads {
					t.Errorf("%s, strategy %s: the fingerprint moved = %v, the strategy reads the field = %v", field, name, moved, reads)
				}
			}
		}
	}
}
