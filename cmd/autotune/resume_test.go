package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"autotune/internal/resilience"
)

// TestMain lets the tests run the command itself: re-executed with
// AUTOTUNE_TEST_MAIN=1 the test binary is cmd/autotune.
func TestMain(m *testing.M) {
	if os.Getenv("AUTOTUNE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// autotuneCmd runs the command with args and returns what it printed
// and its error output.
func autotuneCmd(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AUTOTUNE_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestResumedOutputMatchesUninterrupted pins the command's resume
// contract end to end: the checkpoint journal of `-kernel mm -seed 1`,
// cut back to generation 0, 3 and the last but one — a crash right
// after that generation's snapshot — and resumed with the same flags,
// prints byte for byte what the uninterrupted run prints.
func TestResumedOutputMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	want, stderr, err := autotuneCmd(t, "-kernel", "mm", "-seed", "1")
	if err != nil {
		t.Fatalf("uninterrupted run: %v\n%s", err, stderr)
	}
	full := filepath.Join(dir, "full.ckpt")
	got, stderr, err := autotuneCmd(t, "-kernel", "mm", "-seed", "1", "-checkpoint", full)
	if err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, stderr)
	}
	if got != want {
		t.Fatalf("checkpointing changed the output\n got: %s\nwant: %s", got, want)
	}
	journal, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	last, err := resilience.LoadCheckpoint(full)
	if err != nil {
		t.Fatal(err)
	}
	if last.Generation < 5 {
		t.Fatalf("journal ends at generation %d: too short to cut at 3", last.Generation)
	}
	for _, gen := range []int{0, 3, last.Generation - 1} {
		cut := filepath.Join(dir, "cut.ckpt")
		if err := os.WriteFile(cut, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resilience.TrimCheckpoint(cut, gen); err != nil {
			t.Fatal(err)
		}
		got, stderr, err := autotuneCmd(t, "-kernel", "mm", "-seed", "1", "-resume", cut)
		if err != nil {
			t.Fatalf("resume from generation %d: %v\n%s", gen, err, stderr)
		}
		if got != want {
			t.Fatalf("resumed from generation %d, the output differs\n got: %s\nwant: %s", gen, got, want)
		}
	}
}
