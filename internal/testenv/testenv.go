// Package testenv is the module's test support, for _test.go files only.
package testenv

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// Race is true in -race builds, whose instrumentation allocates.
const Race = race

var update = flag.Bool("update", false, "rewrite the files the selected tests pin from the current code")

// Pin holds got byte-identical to the file at path, or under -update
// writes it there. A mismatch fails t at the first differing line, with
// up to three lines before it and the command that rewrites the file.
func Pin(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	bi, _ := debug.ReadBuildInfo() // a test binary's Path is the package's plus ".test"
	rerun := fmt.Sprintf("go test %s -run '^%s$' -update", strings.TrimSuffix(bi.Path, ".test"), t.Name())
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v: %s creates it", err, rerun)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := lines(got), lines(want)
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	msg := fmt.Sprintf("%s differs at line %d:\n", path, i+1)
	for _, l := range w[max(0, i-3):i] {
		msg += "      " + l + "\n"
	}
	last := fmt.Sprintf("got %d lines, want %d", len(g), len(w))
	if i < len(g) && i < len(w) {
		last = fmt.Sprintf("got:  %s\nwant: %s", g[i], w[i])
	}
	t.Fatalf("%s%s\n%s rewrites it", msg, last, rerun)
}

// lines splits data into lines, marking a last one without a newline.
func lines(data []byte) []string {
	l := strings.Split(string(data), "\n")
	if l[len(l)-1] == "" {
		return l[:len(l)-1]
	}
	l[len(l)-1] += " (no newline at end of file)"
	return l
}
