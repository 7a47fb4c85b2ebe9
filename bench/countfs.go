package main

import (
	"os"
	"sync/atomic"

	"autotune/internal/chaos"
)

// countingFS is a pass-through chaos.FS that counts what the storage
// engine asks of the filesystem. On tmpfs (and on a shared sandbox
// disk) flush latency is noise, so I/O cost is reported as these exact
// counts instead of as time.
type countingFS struct {
	under chaos.FS

	writes, writeBytes atomic.Int64
	reads, readBytes   atomic.Int64
	fsyncs             atomic.Int64 // file Sync + SyncDir
	renames            atomic.Int64 // one per flushed or compacted segment
}

func newCountingFS() *countingFS { return &countingFS{under: chaos.OS{}} }

// ioCounts is a point-in-time copy of the counters.
type ioCounts struct {
	writes, writeBytes, reads, readBytes, fsyncs, renames int64
}

func (c *countingFS) counts() ioCounts {
	return ioCounts{
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(),
		reads: c.reads.Load(), readBytes: c.readBytes.Load(),
		fsyncs: c.fsyncs.Load(), renames: c.renames.Load(),
	}
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{
		writes: a.writes - b.writes, writeBytes: a.writeBytes - b.writeBytes,
		reads: a.reads - b.reads, readBytes: a.readBytes - b.readBytes,
		fsyncs: a.fsyncs - b.fsyncs, renames: a.renames - b.renames,
	}
}

func (a ioCounts) add(b ioCounts) ioCounts {
	return ioCounts{
		writes: a.writes + b.writes, writeBytes: a.writeBytes + b.writeBytes,
		reads: a.reads + b.reads, readBytes: a.readBytes + b.readBytes,
		fsyncs: a.fsyncs + b.fsyncs, renames: a.renames + b.renames,
	}
}

func (c *countingFS) wrap(f chaos.File, err error) (chaos.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	return c.wrap(c.under.OpenFile(name, flag, perm))
}

func (c *countingFS) Open(name string) (chaos.File, error) { return c.wrap(c.under.Open(name)) }

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.under.ReadFile(name)
	c.reads.Add(1)
	c.readBytes.Add(int64(len(data)))
	return data, err
}

func (c *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	c.writes.Add(1)
	c.writeBytes.Add(int64(len(data)))
	return c.under.WriteFile(name, data, perm)
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.under.Rename(oldpath, newpath)
}

func (c *countingFS) Remove(name string) error               { return c.under.Remove(name) }
func (c *countingFS) Truncate(name string, size int64) error { return c.under.Truncate(name, size) }
func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.under.MkdirAll(path, perm)
}
func (c *countingFS) ReadDir(name string) ([]os.DirEntry, error) { return c.under.ReadDir(name) }

func (c *countingFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	return c.under.SyncDir(dir)
}

type countingFile struct {
	chaos.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return f.File.Sync()
}
