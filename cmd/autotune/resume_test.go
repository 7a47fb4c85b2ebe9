package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestRetiredFormatsRefusedByName: the two on-disk formats builds up to
// commit ca39811 still read — the v1 journal.jsonl tuning database and
// the JSONL-framed checkpoint — make the command exit 1 with an error
// that names the format and the way out, and leave the files alone.
func TestRetiredFormatsRefusedByName(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, file, content, flag string
		want                      []string
	}{
		{"v1 tuning database", "journal.jsonl",
			`{"v":1,"t":"eval","crc":2774104031,"d":{"key":{"fingerprint":"pg01","machine":"m","objectives":"time+resources","space":"sp01"},"config":[64,64,8],"objectives":[0.5,8]}}
{"v":1,"t":"front","crc":1193046,"d":{"key":{"fingerprint":"pg01","machine":"m","objectives":"time+resources","space":"sp01"},"points":[{"config":[64,64,8],"objectives":[0.5,8]}]}}
`, "-db", []string{"v1 journal database", "ca39811"}},
		{"JSONL checkpoint", "old.ckpt",
			`{"v":1,"t":"snap","crc":3465878915,"d":{"method":"rs-gde3","generation":0,"evaluations":30,"states":[{}]}}
{"v":1,"t":"snap","crc":1193046,"d":{"method":"rs-gde3","generation":1,"evaluations":60,"states":[{}]}}
`, "-resume", []string{"pre-frame JSONL checkpoint", "without -resume"}},
	} {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		arg := path
		if tc.flag == "-db" {
			arg = dir
		}
		stdout, stderr, err := autotuneCmd(t, "-kernel", "mm", "-seed", "1", tc.flag, arg)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout != "" {
			t.Fatalf("%s: err %v, printed %q; want exit 1 and no front", tc.name, err, stdout)
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr, w) {
				t.Fatalf("%s: error output %q does not say %q", tc.name, stderr, w)
			}
		}
		if kept, err := os.ReadFile(path); err != nil || string(kept) != tc.content {
			t.Fatalf("%s: the refused file was touched (%v)", tc.name, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 {
		t.Fatalf("the refused runs left %v behind", entries)
	}
}

// TestBadRaceRefusedBeforeTheDatabaseOpens: a race the optimizer could
// not run exits 2 with one "autotune:" prefix and creates no -db
// directory, like an unknown contender always did.
func TestBadRaceRefusedBeforeTheDatabaseOpens(t *testing.T) {
	for name, flags := range map[string][]string{
		"one contender":     {"-race-strategies", "gde3"},
		"duplicate":         {"-race-strategies", "gde3,gde3"},
		"brute-force":       {"-race-strategies", "gde3,brute-force"},
		"unknown":           {"-race-strategies", "gde3,alien"},
		"negative interval": {"-race-interval", "-2"},
		"negative budget":   {"-race-budget", "-5"},
	} {
		db := filepath.Join(t.TempDir(), "db")
		stdout, stderr, err := autotuneCmd(t, append([]string{"-method", "race", "-db", db}, flags...)...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout != "" {
			t.Errorf("%s: err %v, printed %q; want exit 2 and nothing printed", name, err, stdout)
		}
		if strings.Count(stderr, "autotune:") != 1 {
			t.Errorf("%s: error output %q does not carry exactly one prefix", name, stderr)
		}
		if _, err := os.Stat(db); !os.IsNotExist(err) {
			t.Errorf("%s: the refused run created %s (%v)", name, db, err)
		}
	}
}

// TestNegativeFlagsRefusedBeforeTheDatabaseOpens: a negative -n,
// -islands, -migrate, -eval-timeout, -deadline or -fault-demo used to
// be read as the default (or, for -migrate, refused only after -db was
// created). Each now exits 2 with one "autotune:" prefix, naming what is
// negative, and creates no -db directory.
func TestNegativeFlagsRefusedBeforeTheDatabaseOpens(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
		says  string
	}{
		{"n", []string{"-n", "-64"}, "N -64 must not be negative"},
		{"islands", []string{"-islands", "-2"}, "Islands -2 must not be negative"},
		{"migrate", []string{"-islands", "4", "-migrate", "-3"}, "MigrationInterval -3 must not be negative"},
		{"eval-timeout", []string{"-eval-timeout", "-1s"}, "EvalTimeout -1s must not be negative"},
		{"deadline", []string{"-deadline", "-5s"}, "-deadline -5s must not be negative"},
		{"fault-demo", []string{"-fault-demo", "-5"}, "-fault-demo -5 must not be negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusedBeforeTheDatabaseOpens(t, tc.flags, tc.says)
		})
	}
}

// TestFaultRateOutsideUnitRefused: -fault-rate is a probability. A rate
// above 1 used to run as 1 and print it times 100 as the error rate; a
// negative one ran as 0. Each, and NaN, now exits 2 naming the range.
func TestFaultRateOutsideUnitRefused(t *testing.T) {
	for _, rate := range []string{"30", "1.5", "-0.1", "NaN"} {
		t.Run(rate, func(t *testing.T) {
			refusedBeforeTheDatabaseOpens(t, []string{"-fault-demo", "10", "-fault-rate", rate}, "-fault-rate "+rate+" must be within [0, 1]")
		})
	}
}

// refusedBeforeTheDatabaseOpens runs mm with a -db directory and flags,
// and checks that the run exits 2 printing nothing, with one
// "autotune:" prefix and an error that says says, and creates no -db
// directory.
func refusedBeforeTheDatabaseOpens(t *testing.T, flags []string, says string) {
	t.Helper()
	db := filepath.Join(t.TempDir(), "db")
	stdout, stderr, err := autotuneCmd(t, append([]string{"-kernel", "mm", "-db", db}, flags...)...)
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || stdout != "" {
		t.Errorf("err %v, printed %q; want exit 2 and nothing printed", err, stdout)
	}
	if strings.Count(stderr, "autotune:") != 1 || !strings.Contains(stderr, says) {
		t.Errorf("error output %q does not carry exactly one prefix and say %q", stderr, says)
	}
	if _, err := os.Stat(db); !os.IsNotExist(err) {
		t.Errorf("the refused run created %s (%v)", db, err)
	}
}

// TestFaultDemoAbsorbsEveryFailure: -fault-demo drives the runtime over
// the tuned unit with faults injected into its fastest version. With two
// or more versions to fall back to, no invocation reaches the caller as
// an error, and the summary shows the failures the runtime absorbed and
// the fallbacks that absorbed them.
func TestFaultDemoAbsorbsEveryFailure(t *testing.T) {
	unitFile := filepath.Join(t.TempDir(), "unit.json")
	stdout, stderr, err := autotuneCmd(t, "-kernel", "mm", "-n", "64", "-fault-demo", "200", "-o", unitFile)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	data, err := os.ReadFile(unitFile)
	if err != nil {
		t.Fatal(err)
	}
	var unit struct{ Versions []json.RawMessage }
	if err := json.Unmarshal(data, &unit); err != nil {
		t.Fatal(err)
	}
	if len(unit.Versions) < 2 {
		t.Fatalf("the tuned unit has %d versions, the demo needs two to fall back", len(unit.Versions))
	}
	var callerErrors, failures, fallbacks, quarantines, readmissions int
	_, line, _ := strings.Cut(stdout, "caller errors ")
	if _, err := fmt.Sscanf("caller errors "+line, "caller errors %d | failures absorbed %d | fallbacks %d | quarantines %d | readmissions %d",
		&callerErrors, &failures, &fallbacks, &quarantines, &readmissions); err != nil {
		t.Fatalf("no fault demo summary line (%v) in:\n%s", err, stdout)
	}
	if callerErrors != 0 || failures == 0 || fallbacks == 0 {
		t.Fatalf("caller errors %d, failures absorbed %d, fallbacks %d; want 0 and more than 0 of the others", callerErrors, failures, fallbacks)
	}
}

// TestEmitCNamesWhatWasTuned: -emit-c names the C functions after the
// tuned program — a -program file's declared name, not -kernel's
// default mm — and keeps them C identifiers.
func TestEmitCNamesWhatWasTuned(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "matmul.mir")
	src := `program matmul
array A[64][64] elem 8
array B[64][64] elem 8
array C[64][64] elem 8
for i = 0..64 {
  for j = 0..64 {
    for k = 0..64 {
      C[i][j] = f(C[i][j], A[i][k], B[k][j]) flops 2
    }
  }
}
`
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args      []string
		want, not string
	}{
		{[]string{"-program", prog}, "matmul_v0(", "mm_v0("},
		{[]string{"-kernel", "jacobi-2d"}, "jacobi_2d_v0(", "jacobi-2d_v0("},
		{[]string{"-kernel", "2mm"}, "k2mm_v0(", " 2mm_v0("},
	} {
		out := filepath.Join(dir, "unit.c")
		if _, stderr, err := autotuneCmd(t, append(tc.args, "-seed", "1", "-emit-c", out)...); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, stderr)
		}
		code, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(code), tc.want) || strings.Contains(string(code), tc.not) {
			t.Errorf("%v: the unit does not define %s or still defines %s:\n%.300s", tc.args, tc.want, tc.not, code)
		}
	}
}
