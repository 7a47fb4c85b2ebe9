package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
)

// Op classifies filesystem operations for fault matching. Values are
// bits so one Fault can cover several operation kinds.
type Op uint16

// Operation kinds. The exported ones are those the fault scripts of
// other packages name.
const (
	opOpen Op = 1 << iota
	OpRead    // ReadFile and File.ReadAt
	OpWrite
	OpSync // File.Sync
	opRename
	OpTruncate // FS.Truncate and File.Truncate
	opRemove
	opMkdir
	opReadDir
	opSyncDir

	// OpAny matches every operation kind.
	OpAny Op = 1<<iota - 1
)

func (o Op) String() string {
	switch o {
	case opOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "fsync"
	case opRename:
		return "rename"
	case OpTruncate:
		return "truncate"
	case opRemove:
		return "remove"
	case opMkdir:
		return "mkdir"
	case opReadDir:
		return "readdir"
	case opSyncDir:
		return "syncdir"
	}
	return fmt.Sprintf("op(%#x)", uint16(o))
}

// ErrInjected is the default injected failure (an EIO-like error).
var ErrInjected = fmt.Errorf("chaos: injected I/O error")

// Fault is one scripted failure. Each fault fires exactly once: it
// counts the operations matching its Op mask (and Path substring, if
// any) and fails the (After+1)-th with Err.
type Fault struct {
	// Op is the bitmask of operation kinds the fault can fire on.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose
	// path contains it as a substring.
	Path string
	// After is how many matching operations pass unharmed before the
	// fault fires.
	After int
	// Err is the injected error (ErrInjected when nil). Use
	// syscall.ENOSPC for out-of-space scripts.
	Err error
	// TornBytes, for OpWrite faults, makes the failing write a torn
	// short write: the first TornBytes bytes reach the file before the
	// error returns — the on-disk shape of a crash mid-append.
	TornBytes int

	seen  int
	fired bool
}

// ENOSPC is the out-of-space errno, for readable fault scripts.
var ENOSPC error = syscall.ENOSPC

// Injector wraps an FS and fails scripted operations. All methods are
// safe for concurrent use; the schedule is deterministic for a fixed
// sequence of operations (concurrent callers determine arrival order,
// exactly as they would on real hardware).
type Injector struct {
	under FS

	mu     sync.Mutex
	faults []*Fault
	log    []string
}

// NewInjector wraps under (the real OS when nil) with a fault script.
func NewInjector(under FS, faults ...Fault) *Injector {
	if under == nil {
		under = OS{}
	}
	inj := &Injector{under: under}
	inj.Add(faults...)
	return inj
}

// Add arms additional faults at runtime.
func (in *Injector) Add(faults ...Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range faults {
		f := faults[i]
		if f.Err == nil {
			f.Err = ErrInjected
		}
		if f.Op == 0 {
			f.Op = OpAny
		}
		in.faults = append(in.faults, &f)
	}
}

// Clear disarms every remaining fault: subsequent operations succeed.
// The injection log is kept.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = nil
}

// Log returns a description of every fault injected so far, in firing
// order.
func (in *Injector) Log() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.log...)
}

// Injected reports how many faults have fired.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.log)
}

// check consumes one operation: the first armed fault matching kind
// and path fires (once) and its scripted fault is returned.
func (in *Injector) check(kind Op, path string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, f := range in.faults {
		if f.fired || f.Op&kind == 0 {
			continue
		}
		if f.Path != "" && !strings.Contains(path, f.Path) {
			continue
		}
		f.seen++
		if f.seen <= f.After {
			continue
		}
		f.fired = true
		in.log = append(in.log, fmt.Sprintf("%s %s: %v", kind, path, f.Err))
		return f
	}
	return nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f := in.check(opOpen, name); f != nil {
		return nil, f.Err
	}
	under, err := in.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: under, name: name}, nil
}

func (in *Injector) Open(name string) (File, error) {
	if f := in.check(opOpen, name); f != nil {
		return nil, f.Err
	}
	under, err := in.under.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: under, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if f := in.check(OpRead, name); f != nil {
		return nil, f.Err
	}
	return in.under.ReadFile(name)
}

func (in *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	if f := in.check(OpWrite, name); f != nil {
		if f.TornBytes > 0 && f.TornBytes < len(data) {
			in.under.WriteFile(name, data[:f.TornBytes], perm)
		}
		return f.Err
	}
	return in.under.WriteFile(name, data, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.check(opRename, newpath); f != nil {
		return f.Err
	}
	return in.under.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if f := in.check(opRemove, name); f != nil {
		return f.Err
	}
	return in.under.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	if f := in.check(OpTruncate, name); f != nil {
		return f.Err
	}
	return in.under.Truncate(name, size)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if f := in.check(opMkdir, path); f != nil {
		return f.Err
	}
	return in.under.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if f := in.check(opReadDir, name); f != nil {
		return nil, f.Err
	}
	return in.under.ReadDir(name)
}

func (in *Injector) SyncDir(dir string) error {
	if f := in.check(opSyncDir, dir); f != nil {
		return f.Err
	}
	return in.under.SyncDir(dir)
}

// injFile threads file operations back through the injector.
type injFile struct {
	in   *Injector
	f    File
	name string
}

func (jf *injFile) Write(p []byte) (int, error) {
	if f := jf.in.check(OpWrite, jf.name); f != nil {
		n := 0
		if f.TornBytes > 0 {
			// A torn short write: part of the payload lands before the
			// error, exactly like a crash or ENOSPC mid-append.
			k := f.TornBytes
			if k > len(p) {
				k = len(p)
			}
			n, _ = jf.f.Write(p[:k])
		}
		return n, f.Err
	}
	return jf.f.Write(p)
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	if f := jf.in.check(OpRead, jf.name); f != nil {
		return 0, f.Err
	}
	return jf.f.ReadAt(p, off)
}

func (jf *injFile) Sync() error {
	if f := jf.in.check(OpSync, jf.name); f != nil {
		return f.Err
	}
	return jf.f.Sync()
}

func (jf *injFile) Truncate(size int64) error {
	if f := jf.in.check(OpTruncate, jf.name); f != nil {
		return f.Err
	}
	return jf.f.Truncate(size)
}

func (jf *injFile) Close() error { return jf.f.Close() }

func (jf *injFile) Stat() (os.FileInfo, error) { return jf.f.Stat() }

// Schedule derives a deterministic fault script from a seed: nfaults
// independent faults over durability-critical operations, each firing
// within the first maxOps matching operations. The same seed always
// yields the same script, so a failing chaos sweep seed reproduces
// exactly.
func Schedule(seed int64, nfaults, maxOps int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	if maxOps < 1 {
		maxOps = 1
	}
	out := make([]Fault, 0, nfaults)
	for i := 0; i < nfaults; i++ {
		f := Fault{After: rng.Intn(maxOps)}
		switch rng.Intn(6) {
		case 0: // plain I/O error on a write
			f.Op = OpWrite
		case 1: // out of space
			f.Op, f.Err = OpWrite, ENOSPC
		case 2: // torn short write: a few bytes land, then the error
			f.Op, f.Err, f.TornBytes = OpWrite, ENOSPC, 1+rng.Intn(16)
		case 3: // fsync failure (fires once; the fsyncgate shape)
			f.Op = OpSync
		case 4: // rename or directory-sync failure
			if rng.Intn(2) == 0 {
				f.Op = opRename
			} else {
				f.Op = opSyncDir
			}
		case 5: // truncate failure (WAL reset after flush)
			f.Op = OpTruncate
		}
		out = append(out, f)
	}
	return out
}
