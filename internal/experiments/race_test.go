package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"autotune/internal/kernels"
	"autotune/internal/machine"
	"autotune/internal/optimizer"
)

var update = flag.Bool("update", false, "rewrite the testdata pins of the selected tests from the current code")

const raceStandingsPath = "testdata/race_standings.json"

// TestRaceComparisonQuick: every contender runs alone, then the race
// runs capped at the largest single budget, and all six fronts share
// one pool.
func TestRaceComparisonQuick(t *testing.T) {
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	c, err := RaceComparison(mm, machine.Westmere(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != len(raceStrategies)+1 {
		t.Fatalf("runs = %d", len(c.Runs))
	}
	budget := 0.0
	for i, name := range raceStrategies {
		if c.Runs[i].Label != name {
			t.Fatalf("run %d is %s, want %s", i, c.Runs[i].Label, name)
		}
		budget = max(budget, c.Runs[i].E)
	}
	race := c.Runs[len(raceStrategies)]
	if race.Label != "race (all)" || race.E > budget || race.E == 0 {
		t.Fatalf("%s spent %v evaluations against a budget of %v", race.Label, race.E, budget)
	}
	if !strings.Contains(c.Title, fmt.Sprintf("race budget %.0f evaluations", budget)) {
		t.Errorf("title %q does not state the budget %v", c.Title, budget)
	}
	for _, r := range c.Runs {
		if r.S == 0 || r.V < 0 || r.V > 1 {
			t.Errorf("%s: |S| %v, V %v", r.Label, r.S, r.V)
		}
	}
	standings := strings.Join(c.Notes, "\n")
	for _, name := range raceStrategies {
		if !strings.Contains(standings, name+" ") {
			t.Errorf("standings %q lack %s", standings, name)
		}
	}
}

// TestRaceStandingsPinned holds the race arm's standings on the cells
// cmd/repro's quick output renders at %.2g — mm on both machines — at
// full precision, byte-identical to testdata/race_standings.json.
// -update regenerates it.
func TestRaceStandingsPinned(t *testing.T) {
	mm, err := kernels.ByName("mm")
	if err != nil {
		t.Fatal(err)
	}
	standings := map[string][]optimizer.Standing{}
	for _, m := range []*machine.Machine{machine.Westmere(), machine.Barcelona()} {
		c, err := RaceComparison(mm, m, Quick)
		if err != nil {
			t.Fatal(err)
		}
		standings["mm/"+m.Name] = c.Runs[len(raceStrategies)].Results[0].Standings
	}
	got, err := json.MarshalIndent(standings, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(raceStandingsPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(raceStandingsPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("race standings differ from %s:\n%s", raceStandingsPath, got)
	}
}
