package main

import (
	"strings"
	"testing"

	"autotune"
	"autotune/internal/driver"
)

func TestValidateChoicesAcceptsEveryRegisteredName(t *testing.T) {
	for _, m := range autotune.Methods() {
		if err := validateChoices(driver.Options{Method: driver.Method(m)}); err != nil {
			t.Fatalf("method %q rejected: %v", m, err)
		}
	}
	full := driver.Options{Method: driver.MethodRace, Race: driver.RaceOptions{Strategies: autotune.Strategies()}}
	if err := validateChoices(full); err != nil {
		t.Fatalf("full contender set rejected: %v", err)
	}
}

func TestValidateChoicesListsValidNames(t *testing.T) {
	err := validateChoices(driver.Options{Method: "alien"})
	if err == nil {
		t.Fatal("unknown method accepted")
	}
	for _, m := range autotune.Methods() {
		if !strings.Contains(err.Error(), m) {
			t.Fatalf("method error %q does not mention %q", err, m)
		}
	}

	err = validateChoices(driver.Options{Method: driver.MethodRace, Race: driver.RaceOptions{Strategies: []string{"grid", "alien"}}})
	if err == nil {
		t.Fatal("unknown race strategy accepted")
	}
	for _, s := range autotune.Strategies() {
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("strategy error %q does not mention %q", err, s)
		}
	}
}

// TestValidateChoicesRefusesWhatTheDriverRefuses: a combination the
// driver would refuse after the database and the checkpoint file were
// opened is refused here, before either.
func TestValidateChoicesRefusesWhatTheDriverRefuses(t *testing.T) {
	for name, choices := range map[string]driver.Options{
		"random islands":         {Method: driver.MethodRandom, Islands: 4},
		"motpe islands":          {Method: driver.MethodMOTPE, Islands: 4},
		"brute-force surrogate":  {Method: driver.MethodBruteForce, Surrogate: true},
		"brute-force screen":     {Method: driver.MethodBruteForce, ScreenTopK: 4},
		"grid checkpoint":        {Method: driver.MethodGrid, CheckpointPath: "x.ckpt"},
		"race resume":            {Method: driver.MethodRace, ResumeFrom: "x.ckpt"},
		"race islands":           {Method: driver.MethodRace, Islands: 2},
		"race one contender":     {Method: driver.MethodRace, Race: driver.RaceOptions{Strategies: []string{"gde3"}}},
		"race duplicate":         {Method: driver.MethodRace, Race: driver.RaceOptions{Strategies: []string{"gde3", "gde3"}}},
		"race brute-force":       {Method: driver.MethodRace, Race: driver.RaceOptions{Strategies: []string{"gde3", "brute-force"}}},
		"race negative interval": {Method: driver.MethodRace, Race: driver.RaceOptions{Interval: -2}},
		"race negative budget":   {Method: driver.MethodRace, Race: driver.RaceOptions{Budget: -5}},
		"negative random budget": {RandomBudget: -1},
	} {
		if err := validateChoices(choices); err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.HasPrefix(err.Error(), "driver:") {
			t.Errorf("%s: error keeps the package prefix: %v", name, err)
		}
	}
	ok := driver.Options{Method: driver.MethodNSGA2, Islands: 4, Surrogate: true, CheckpointPath: "x.ckpt"}
	if err := validateChoices(ok); err != nil {
		t.Errorf("nsga2 with islands, screen and checkpoint refused: %v", err)
	}
}

// TestMethodThatRuns: `autotune -race-budget 500` runs the race, so the
// summary must not say "via rs-gde3".
func TestMethodThatRuns(t *testing.T) {
	for _, c := range []struct {
		method           string
		interval, budget int
		strategies       string
		want             autotune.Method
	}{
		{"rs-gde3", 0, 0, "", autotune.RSGDE3},
		{"nsga2", 0, 0, "", autotune.Method("nsga2")},
		{"race", 0, 0, "", autotune.MethodRace},
		{"rs-gde3", 0, 500, "", autotune.MethodRace},
		{"rs-gde3", 3, 0, "", autotune.MethodRace},
		{"gde3", 0, 0, "grid,random", autotune.MethodRace},
	} {
		if got := methodThatRuns(c.method, c.interval, c.budget, c.strategies); got != c.want {
			t.Errorf("methodThatRuns(%q, %d, %d, %q) = %q, want %q", c.method, c.interval, c.budget, c.strategies, got, c.want)
		}
	}
}

func TestSplitStrategies(t *testing.T) {
	got := splitStrategies(" grid, random ,,rs-gde3 ")
	want := []string{"grid", "random", "rs-gde3"}
	if len(got) != len(want) {
		t.Fatalf("splitStrategies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitStrategies = %v, want %v", got, want)
		}
	}
	if splitStrategies("") != nil {
		t.Fatal("empty list should parse to nil")
	}
}

func TestValidateScreenTopK(t *testing.T) {
	// Implicit 0 is the automatic default and always fine.
	if err := validateScreenTopK(0, false); err != nil {
		t.Fatalf("implicit default rejected: %v", err)
	}
	if err := validateScreenTopK(5, true); err != nil {
		t.Fatalf("positive cap rejected: %v", err)
	}
	// An explicit zero or negative cap would silently screen out
	// everything; reject it upfront.
	for _, k := range []int{0, -1, -100} {
		if err := validateScreenTopK(k, true); err == nil {
			t.Fatalf("explicit -screen-topk %d accepted", k)
		}
	}
}
