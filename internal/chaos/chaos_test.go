package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOSPassThrough exercises every FS and File operation against the
// real filesystem: the production path must behave exactly like the os
// package.
func TestOSPassThrough(t *testing.T) {
	fs := OS{}
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(sub, "f.txt")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if st, err := f.Stat(); err != nil || st.Size() != 11 {
		t.Fatalf("Stat = %v, %v", st, err)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if data, err := fs.ReadFile(path); err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := fs.Truncate(path, 4); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 4)
	if _, err := r.ReadAt(buf, 0); err != nil || string(buf) != "hell" {
		t.Fatalf("read-only ReadAt = %q, %v", buf, err)
	}
	r.Close()

	moved := filepath.Join(sub, "g.txt")
	if err := fs.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := fs.ReadDir(sub)
	if err != nil || len(entries) != 2 {
		t.Fatalf("ReadDir = %v, %v", entries, err)
	}
	if err := fs.Remove(moved); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/no/such/dir"); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
}

// TestInjectorFaultsFireOnce: each fault fails exactly one matching
// operation (respecting Op mask, Path substring, and After count) and
// the operation stream is clean afterwards.
func TestInjectorFaultsFireOnce(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	inj := NewInjector(nil, Fault{Op: OpWrite, Path: "wal.log", After: 1})

	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("one")); err != nil { // After: 1 passes the first
		t.Fatalf("write before the fault window: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write = %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("three")); err != nil { // fault consumed
		t.Fatalf("write after the fault fired: %v", err)
	}
	if got := inj.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
	log := inj.Log()
	if len(log) != 1 || !strings.Contains(log[0], "write") || !strings.Contains(log[0], "wal.log") {
		t.Fatalf("Log() = %v", log)
	}

	// A path-restricted fault never matches other files.
	inj.Add(Fault{Op: OpWrite, Path: "segment"})
	if err := inj.WriteFile(filepath.Join(dir, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatalf("fault leaked across the path filter: %v", err)
	}
	if err := inj.WriteFile(filepath.Join(dir, "segment-1"), []byte("s"), 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("path-matched write = %v, want ErrInjected", err)
	}
	inj.Clear()
	if err := inj.WriteFile(filepath.Join(dir, "segment-2"), []byte("s"), 0o644); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}
	if got := inj.Injected(); got != 2 { // Clear keeps the log
		t.Fatalf("Injected() after Clear = %d, want 2", got)
	}
}

// TestInjectorTornWrite: a TornBytes fault lands a prefix of the
// payload before erroring — the on-disk shape of a crash mid-append —
// for both File.Write and FS.WriteFile.
func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(nil, Fault{Op: OpWrite, Err: ENOSPC, TornBytes: 4})

	path := filepath.Join(dir, "torn")
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("0123456789"))
	if n != 4 || !errors.Is(err, ENOSPC) {
		t.Fatalf("torn write = %d, %v; want 4, ENOSPC", n, err)
	}
	f.Close()
	if data, _ := os.ReadFile(path); string(data) != "0123" {
		t.Fatalf("on-disk torn prefix = %q, want %q", data, "0123")
	}

	inj.Add(Fault{Op: OpWrite, TornBytes: 2})
	path2 := filepath.Join(dir, "torn2")
	if err := inj.WriteFile(path2, []byte("abcdef"), 0o644); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn WriteFile = %v", err)
	}
	if data, _ := os.ReadFile(path2); string(data) != "ab" {
		t.Fatalf("torn WriteFile prefix = %q, want %q", data, "ab")
	}
}

// TestInjectorCoversEveryOperation arms one fault per operation kind
// and checks each FS entry point consults the injector.
func TestInjectorCoversEveryOperation(t *testing.T) {
	dir := t.TempDir()
	real := filepath.Join(dir, "real")
	if err := os.WriteFile(real, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		op   Op
		call func(in *Injector) error
	}{
		{opOpen, func(in *Injector) error { _, err := in.Open(real); return err }},
		{opOpen, func(in *Injector) error { _, err := in.OpenFile(real, os.O_RDONLY, 0); return err }},
		{OpRead, func(in *Injector) error { _, err := in.ReadFile(real); return err }},
		{OpTruncate, func(in *Injector) error { return in.Truncate(real, 0) }},
		{opRename, func(in *Injector) error { return in.Rename(real, real+".new") }},
		{opRemove, func(in *Injector) error { return in.Remove(real) }},
		{opMkdir, func(in *Injector) error { return in.MkdirAll(filepath.Join(dir, "sub"), 0o755) }},
		{opReadDir, func(in *Injector) error { _, err := in.ReadDir(dir); return err }},
		{opSyncDir, func(in *Injector) error { return in.SyncDir(dir) }},
	}
	for _, tc := range cases {
		in := NewInjector(nil, Fault{Op: tc.op})
		if err := tc.call(in); !errors.Is(err, ErrInjected) {
			t.Errorf("%s: fault not injected: %v", tc.op, err)
		}
	}

	// File-level read, fsync and truncate faults.
	in := NewInjector(nil, Fault{Op: OpRead}, Fault{Op: OpSync}, Fault{Op: OpTruncate})
	f, err := in.OpenFile(real, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
		t.Errorf("ReadAt fault not injected: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Errorf("Sync fault not injected: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Errorf("File.Truncate fault not injected: %v", err)
	}
	if _, err := f.Stat(); err != nil { // Stat passes through unfaulted
		t.Errorf("Stat: %v", err)
	}
}

// TestOpString covers the fault-log vocabulary.
func TestOpString(t *testing.T) {
	want := map[Op]string{
		opOpen: "open", OpRead: "read", OpWrite: "write", OpSync: "fsync",
		opRename: "rename", OpTruncate: "truncate", opRemove: "remove",
		opMkdir: "mkdir", opReadDir: "readdir", opSyncDir: "syncdir",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if !strings.Contains(OpAny.String(), "op(") {
		t.Errorf("composite Op string: %q", OpAny.String())
	}
}

// TestScheduleShape: schedules are deterministic per seed, distinct
// across seeds, and only script durability-critical (write-side)
// operations — a schedule must never fault reads or opens, which would
// break the sweep's differential read checks.
func TestScheduleShape(t *testing.T) {
	// The durability-critical operations: the ones whose failure a store
	// must survive without losing acknowledged data.
	const writeSide = OpWrite | OpSync | opRename | OpTruncate | opSyncDir
	a, b := Schedule(7, 50, 40), Schedule(7, 50, 40)
	for i := range a {
		if a[i].Op != b[i].Op || a[i].After != b[i].After || a[i].TornBytes != b[i].TornBytes {
			t.Fatalf("same seed diverges at fault %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(Schedule(0, 0, 10)) != 0 {
		t.Fatal("zero-fault schedule not empty")
	}
	for seed := int64(0); seed < 20; seed++ {
		for _, f := range Schedule(seed, 8, 0) { // maxOps clamps to 1
			if f.Op&writeSide == 0 || f.Op&(opOpen|OpRead|opRemove|opMkdir|opReadDir) != 0 {
				t.Fatalf("seed %d scripted a non-write-side fault: %+v", seed, f)
			}
			if f.After != 0 {
				t.Fatalf("maxOps 0 not clamped: After = %d", f.After)
			}
			if f.TornBytes < 0 || f.TornBytes > 16 {
				t.Fatalf("torn bytes out of range: %+v", f)
			}
		}
	}
}

// TestInjectorDefaultErr: a zero-valued fault gets ErrInjected and the
// OpAny mask.
func TestInjectorDefaultErr(t *testing.T) {
	in := NewInjector(nil, Fault{})
	if err := in.SyncDir(t.TempDir()); !errors.Is(err, ErrInjected) {
		t.Fatalf("zero fault did not match any op with default error: %v", err)
	}
}
