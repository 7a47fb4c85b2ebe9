package testenv

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB whose Fatal records the message and ends the
// goroutine, as the real one does.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper()                      {}
func (r *recorder) Name() string                 { return "TestPinned/GOMAXPROCS4" }
func (r *recorder) Fatal(args ...any)            { r.msg = fmt.Sprint(args...); runtime.Goexit() }
func (r *recorder) Fatalf(f string, args ...any) { r.msg = fmt.Sprintf(f, args...); runtime.Goexit() }

// pin runs Pin on a recorder and returns what it failed with, or "".
func pin(path, got string) string {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Pin(r, path, []byte(got))
	}()
	<-done
	return r.msg
}

func TestPin(t *testing.T) {
	const want = "one\ntwo\nthree\nfour\nfive\nsix\n"
	path := filepath.Join(t.TempDir(), "pinned.txt")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	rerun := "go test autotune/internal/testenv -run '^TestPinned/GOMAXPROCS4$' -update rewrites it"
	for _, c := range []struct {
		name, path, got string
		want            []string // the message, line by line; nil is a pass
	}{
		{"equal", path, want, nil},
		{"missing", path + ".missing", want, []string{"open " + path + ".missing: no such file or directory: go test autotune/internal/testenv -run '^TestPinned/GOMAXPROCS4$' -update creates it"}},
		{"middle line", path, "one\ntwo\nthree\nfour\nFIVE\nsix\n", []string{
			path + " differs at line 5:",
			"      two",
			"      three",
			"      four",
			"got:  FIVE",
			"want: five",
			rerun,
		}},
		{"first line", path, "zero\ntwo\nthree\nfour\nfive\nsix\n", []string{path + " differs at line 1:", "got:  zero", "want: one", rerun}},
		{"file is a prefix", path, want + "seven\n", []string{path + " differs at line 7:", "      four", "      five", "      six", "got 7 lines, want 6", rerun}},
		{"got is a prefix", path, "one\ntwo\n", []string{path + " differs at line 3:", "      one", "      two", "got 2 lines, want 6", rerun}},
		{"last newline", path, strings.TrimSuffix(want, "\n"), []string{
			path + " differs at line 6:",
			"      three",
			"      four",
			"      five",
			"got:  six (no newline at end of file)",
			"want: six",
			rerun,
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			msg := pin(c.path, c.got)
			if want := strings.Join(c.want, "\n"); msg != want {
				t.Errorf("Pin failed with\n%s\nwant\n%s", msg, want)
			}
		})
	}
}

func TestPinUpdateRewrites(t *testing.T) {
	defer func(u bool) { *update = u }(*update)
	*update = true
	path := filepath.Join(t.TempDir(), "new", "dir", "pinned.txt")
	for _, got := range []string{"first\n", "second\n"} {
		if msg := pin(path, got); msg != "" {
			t.Fatalf("-update failed: %s", msg)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != got {
			t.Fatalf("-update left %q, %v; want %q", data, err, got)
		}
	}
	*update = false
	if msg := pin(path, "second\n"); msg != "" {
		t.Fatalf("the rewritten file does not pass: %s", msg)
	}
}
