package autotune

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"autotune/internal/testenv"
)

// exampleNames lists the programs under examples/.
var exampleNames = []string{"custombench", "emitc", "faulttolerant", "measured", "multiregion", "multiversion", "quickstart"}

// measuredShape is what examples/measured prints, line by line: it times
// real kernels, so its numbers and front differ from run to run.
var measuredShape = regexp.MustCompile(`^tuning real mm kernel on this machine \(\d+ CPUs?\)\.\.\.
search finished in \S+ after \d+ timed evaluations

#\s+tiles\s+threads\s+time \[s\]\s+resources
(\d+\s+\d+x\d+x\d+\s+\d+\s+[0-9.]+\s+[0-9.]+
)+
re-running the fastest version for confirmation:
tiles=\[\d+ \d+ \d+\] threads=\d+ reran in [0-9.]+s \(tuned median was [0-9.]+s\)
$`)

// TestExamples builds the example programs once and runs each one: it
// must exit 0. The deterministic ones must print testdata/examples/
// <name>.txt byte for byte, stdout and stderr as one stream (-update
// rewrites those files); measured's output is checked for its shape
// only. The examples reach the public entry points — custombench runs
// Optimize, multiregion MultiRSGDE3 — so these pins hold the search
// paths behind them.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seven programs")
	}
	if testenv.Race {
		t.Skip("the example binaries are not built with the race detector")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range exampleNames {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out)
			}
			if name == "measured" {
				if !measuredShape.Match(out) {
					t.Fatalf("measured printed an unexpected shape:\n%s", out)
				}
				return
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			testenv.Pin(t, path, out)
		})
	}
}
