package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"autotune/internal/israce"
)

var update = flag.Bool("update", false, "rewrite repro_output.txt from the current output")

const committed = "../../repro_output.txt"

// TestFullOutputMatchesCommitted pins repro_output.txt: the committed
// file is what `repro -mode full -reps 3` prints, byte for byte.
func TestFullOutputMatchesCommitted(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-mode", "full", "-reps", "3"}, &got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(committed, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output drifted from %s at line %d\n got: %s\nwant: %s\n(go test ./cmd/repro -run FullOutput -update regenerates it)",
					committed, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", committed, len(gl), len(wl))
	}
}

// headers is the first line each experiment prints.
var headers = map[string]string{
	"all":       "Table I:",
	"table1":    "Table I:",
	"fig1":      "Fig. 1:",
	"fig2":      "Fig. 2:",
	"table2":    "Table II:",
	"table3":    "Table III:",
	"table4":    "Table IV:",
	"table5":    "Table V:",
	"fig8":      "Fig. 8:",
	"table6":    "Table VI:",
	"fig9":      "Fig. 9:",
	"island":    "Island-model comparison:",
	"warmstart": "Warm-start comparison:",
	"race":      "Strategy race:",
	"surrogate": "Surrogate pre-screening:",
	"resume":    "Checkpoint/resume on Westmere:",
	"extended":  "Extended strategy comparison (Westmere):",
	"validate":  "Model-vs-simulator validation:",
}

func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range exps {
		t.Run(e.name, func(t *testing.T) {
			if e.name == "validate" && (testing.Short() || israce.Enabled) {
				// 15 s plain, over 100 s under the race detector, and
				// single-threaded: the plain run covers the wiring.
				t.Skip("trace-driven simulation")
			}
			var out bytes.Buffer
			dir := t.TempDir()
			if err := run([]string{"-exp", e.name, "-mode", "quick", "-kernel", "mm", "-machine", "Westmere", "-export", dir}, &out); err != nil {
				t.Fatal(err)
			}
			if files, _ := os.ReadDir(dir); (len(files) > 0) != (e.name == "fig2" || e.name == "fig8" || e.name == "fig9") {
				t.Errorf("-export wrote %d files", len(files))
			}
			if want, ok := headers[e.name]; !ok || !strings.HasPrefix(out.String(), want) {
				first, _, _ := strings.Cut(out.String(), "\n")
				t.Errorf("output starts with %q, want prefix %q", first, want)
			}
		})
	}
}

// TestExperimentNamesHaveOneSource: the unknown-name error and the
// usage line of the package comment both carry exactly the names of
// the exps table.
func TestExperimentNamesHaveOneSource(t *testing.T) {
	err := run([]string{"-exp", "table7"}, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), expNames()) {
		t.Errorf("unknown experiment: got %v, want an error listing %s", err, expNames())
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if usage := "[-exp " + strings.ReplaceAll(expNames(), ", ", "|") + "]"; !strings.Contains(string(src), usage) {
		t.Errorf("package comment of main.go lacks the usage line %s", usage)
	}
}

func TestRunBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-machine", "NoSuchMachine"},
		{"-kernel", "nosuchkernel"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("%v: expected an error", args)
		}
	}
}
