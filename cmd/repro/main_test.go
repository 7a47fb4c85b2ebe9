package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"autotune/internal/israce"
)

var update = flag.Bool("update", false, "rewrite repro_output.txt and testdata/quick_output.txt from the current output")

// TestFullOutputMatchesCommitted pins repro_output.txt: the committed
// file is what `repro -mode full -reps 3` prints, byte for byte.
func TestFullOutputMatchesCommitted(t *testing.T) {
	var got bytes.Buffer
	if err := run([]string{"-mode", "full", "-reps", "3"}, &got); err != nil {
		t.Fatal(err)
	}
	matchCommitted(t, "../../repro_output.txt", got.Bytes())
}

// TestQuickOutputMatchesCommitted pins what repro_output.txt does not
// reach: every -exp but all and validate at -mode quick -machine all
// -kernel mm, each under a "== -exp NAME ==" line. The island table's
// wall-clock and speedup columns are timings and are cut out first.
func TestQuickOutputMatchesCommitted(t *testing.T) {
	var got bytes.Buffer
	for _, e := range exps {
		if e.name == "all" || e.name == "validate" {
			continue
		}
		var out bytes.Buffer
		if err := run([]string{"-exp", e.name, "-mode", "quick", "-machine", "all", "-kernel", "mm"}, &out); err != nil {
			t.Fatalf("-exp %s: %v", e.name, err)
		}
		s := out.String()
		if e.name == "island" {
			s = dropColumns(s, "Wall clock", "Speedup")
		}
		fmt.Fprintf(&got, "== -exp %s ==\n%s", e.name, s)
	}
	matchCommitted(t, "testdata/quick_output.txt", got.Bytes())
}

// matchCommitted fails at the first line where got differs from the
// file at path, or rewrites the file under -update.
func matchCommitted(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output drifted from %s at line %d\n got: %s\nwant: %s\n(go test ./cmd/repro -run %s -update regenerates it)",
					path, i+1, gl[i], wl[i], t.Name())
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// dropColumns cuts the named columns out of every table in out, taking
// each column's extent from the table's dash line.
func dropColumns(out string, names ...string) string {
	lines := strings.Split(out, "\n")
	for i := 1; i < len(lines); i++ {
		dashes := lines[i]
		if !strings.HasPrefix(dashes, "-") {
			continue
		}
		var starts []int
		for k := range dashes {
			if dashes[k] == '-' && (k == 0 || dashes[k-1] == ' ') {
				starts = append(starts, k)
			}
		}
		header := lines[i-1]
		for j := i - 1; j < len(lines) && lines[j] != ""; j++ {
			var b strings.Builder
			for c, s := range starts {
				e := len(lines[j])
				if c+1 < len(starts) {
					e = min(starts[c+1], e)
				}
				dropped := false
				for _, name := range names {
					dropped = dropped || s < len(header) && strings.HasPrefix(header[s:], name)
				}
				if !dropped && s < e {
					b.WriteString(lines[j][s:e])
				}
			}
			lines[j] = b.String()
			i = j
		}
	}
	return strings.Join(lines, "\n")
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
				// 10–12 s plain, about a minute under the race detector,
				// and single-threaded: the plain run covers the wiring.
				t.Skip("trace-driven simulation")
			}
			var out bytes.Buffer
			dir := t.TempDir()
			if err := run([]string{"-exp", e.name, "-mode", "quick", "-kernel", "mm", "-machine", "Westmere", "-export", dir}, &out); err != nil {
				t.Fatal(err)
			}
			if files, _ := os.ReadDir(dir); (len(files) > 0) != (e.name == "all" || e.name == "fig2" || e.name == "fig8" || e.name == "fig9") {
				t.Errorf("-export wrote %d files", len(files))
			}
			if want, ok := headers[e.name]; !ok || !strings.HasPrefix(out.String(), want) {
				first, _, _ := strings.Cut(out.String(), "\n")
				t.Errorf("output starts with %q, want prefix %q", first, want)
			}
		})
	}
}

// TestAllQuickPrintsThePaper: -exp all is the paper's Section V, every
// table and figure of it.
func TestAllQuickPrintsThePaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-mode reproduction")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "all", "-mode", "quick", "-reps", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table I", "Fig. 1", "Fig. 2", "Table II", "Table III",
		"Table IV", "Table V", "Fig. 8", "Table VI", "Fig. 9",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-exp all output missing %q", want)
		}
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
		{"-exp", "table1", "-mode", "fast"},
		{"-exp", "table6", "-mode", "quick", "-reps", "0"},
		{"-exp", "table6", "-mode", "quick", "-reps", "-2"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("%v: expected an error", args)
			continue
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
		if name := args[len(args)-2]; (name == "-mode" && !strings.Contains(err.Error(), "quick, full")) ||
			(name == "-reps" && !strings.Contains(err.Error(), "positive")) {
			t.Errorf("%v: error %q does not name the valid values", args, err)
		}
	}
}
