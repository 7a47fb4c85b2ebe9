package autotune

import (
	"testing"
)

// TestTuneWithDBFacade drives the persistent tuning database through
// the public facade: a cold run populates the database, a warm rerun
// reuses it and pays strictly fewer new evaluations.
func TestTuneWithDBFacade(t *testing.T) {
	db, err := OpenDB(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	fast := WithOptimizerOptions(OptimizerOptions{PopSize: 10, Seed: 1, MaxIterations: 10})
	cold, err := Tune("mm", WithSeed(1), fast, WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	if keys, err := db.ScanKeys(""); err != nil || len(keys) != 1 {
		t.Fatalf("database keys = %v, %v", keys, err)
	}

	warm, err := Tune("mm", WithSeed(1), fast, WithDB(db), WithWarmStart())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Evaluations >= cold.Evaluations {
		t.Fatalf("warm E = %d, cold E = %d", warm.Evaluations, cold.Evaluations)
	}
	if len(warm.Unit.Versions) == 0 {
		t.Fatal("warm run emitted no versions")
	}
}

func TestWithDBNil(t *testing.T) {
	if _, err := Tune("mm", WithDB(nil)); err == nil {
		t.Fatal("nil database accepted")
	}
}
