// Package faultfs abstracts the handful of filesystem operations the
// durability layer performs (open, append, fsync, atomic rename) behind a
// small interface, and provides a fault-injecting implementation that
// simulates crashes and media corruption: torn writes that persist only a
// prefix, fsync failures, short reads, and bit flips at configurable byte
// offsets.
//
// The production implementation is OS{}; tests wrap it in an Inject to
// prove that recovery handles every way a write can die halfway. The
// injection model is prefix-persistence: a torn write durably stores some
// prefix of the buffer and then the "disk" fails, after which every
// mutation on the filesystem errors — exactly the view a process sees
// when the kernel dies mid-write and the machine reboots.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// ErrInjected is the sentinel wrapped by every injected fault, so tests
// can tell a simulated crash from a real filesystem error.
var ErrInjected = errors.New("faultfs: injected fault")

// File is the subset of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem surface the durability layer is written against.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename (atomic within a directory on POSIX).
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making a preceding rename or
	// create durable.
	SyncDir(name string) error
}

// OS is the production filesystem.
type OS struct{}

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Stat implements FS.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// BitFlip corrupts one byte of one file at read time: every Read/ReadAt
// that covers Offset returns the byte XORed with Mask. It models silent
// media corruption that only checksums can catch.
type BitFlip struct {
	// Name matches the file's base name (filepath.Base), so tests don't
	// need to predict temporary directory prefixes.
	Name   string
	Offset int64
	Mask   byte
}

// Config describes the faults an Inject filesystem applies.
type Config struct {
	// WriteBudget is the total number of bytes that writes (including
	// truncates, renames and directory syncs, which consume 0 bytes but
	// are refused once the budget is exhausted) may durably persist
	// before the simulated crash: the write that crosses the budget
	// persists only the prefix that fits and fails, and every later
	// mutation fails. A negative budget means unlimited.
	WriteBudget int64
	// FailSyncAfter makes the (n+1)-th File.Sync call fail and the crash
	// begin there; 0 fails the first sync. A negative value disables it.
	FailSyncAfter int
	// MaxReadChunk caps the byte count a single Read/ReadAt returns
	// (short reads); 0 means unlimited. Correct callers use io.ReadFull
	// semantics and never notice.
	MaxReadChunk int
	// Flips lists read-time bit corruptions.
	Flips []BitFlip
}

// Inject wraps an FS and applies the configured faults. It is safe for
// concurrent use.
type Inject struct {
	under FS
	cfg   Config

	mu      sync.Mutex
	written int64
	syncs   int
	crashed bool
}

// NewInject returns an injecting filesystem over under (nil means OS{}).
func NewInject(under FS, cfg Config) *Inject {
	if under == nil {
		under = OS{}
	}
	if cfg.WriteBudget < 0 {
		cfg.WriteBudget = int64(^uint64(0) >> 1)
	}
	return &Inject{under: under, cfg: cfg}
}

// Crashed reports whether the simulated disk has failed (write budget
// exhausted or sync failure reached).
func (f *Inject) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// consume reserves n bytes of write budget, returning how many may be
// durably persisted and whether the disk is (now) crashed.
func (f *Inject) consume(n int) (allowed int, crashed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, true
	}
	remaining := f.cfg.WriteBudget - f.written
	if int64(n) <= remaining {
		f.written += int64(n)
		return n, false
	}
	f.crashed = true
	if remaining < 0 {
		remaining = 0
	}
	f.written += remaining
	return int(remaining), true
}

// mutate gates a non-write mutation (rename, remove, truncate, mkdir,
// directory sync) on the disk still being alive.
func (f *Inject) mutate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("mutation after crash: %w", ErrInjected)
	}
	return nil
}

// OpenFile implements FS. Opening for writing counts as a mutation only
// when it can create or truncate the file.
func (f *Inject) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC|os.O_APPEND|os.O_WRONLY|os.O_RDWR) != 0 {
		if err := f.mutate(); err != nil {
			return nil, err
		}
	}
	file, err := f.under.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{fs: f, under: file, name: name}, nil
}

// Rename implements FS.
func (f *Inject) Rename(oldpath, newpath string) error {
	if err := f.mutate(); err != nil {
		return err
	}
	return f.under.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *Inject) Remove(name string) error {
	if err := f.mutate(); err != nil {
		return err
	}
	return f.under.Remove(name)
}

// Stat implements FS.
func (f *Inject) Stat(name string) (os.FileInfo, error) { return f.under.Stat(name) }

// ReadDir implements FS.
func (f *Inject) ReadDir(name string) ([]os.DirEntry, error) { return f.under.ReadDir(name) }

// MkdirAll implements FS.
func (f *Inject) MkdirAll(path string, perm os.FileMode) error {
	if err := f.mutate(); err != nil {
		return err
	}
	return f.under.MkdirAll(path, perm)
}

// SyncDir implements FS.
func (f *Inject) SyncDir(name string) error {
	if err := f.mutate(); err != nil {
		return err
	}
	return f.under.SyncDir(name)
}

// injectFile applies the fault configuration to one open file.
type injectFile struct {
	fs    *Inject
	under File
	name  string
	// pos tracks the sequential read offset for bit flips on Read.
	pos int64
}

func (f *injectFile) Name() string { return f.name }

func (f *injectFile) Write(p []byte) (int, error) {
	allowed, crashed := f.fs.consume(len(p))
	if !crashed {
		return f.under.Write(p)
	}
	// Torn write: persist the prefix that fit the budget, then fail.
	n := 0
	if allowed > 0 {
		var err error
		n, err = f.under.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	return n, fmt.Errorf("torn write of %s after %d/%d bytes: %w", f.name, n, len(p), ErrInjected)
}

func (f *injectFile) Read(p []byte) (int, error) {
	if m := f.fs.cfg.MaxReadChunk; m > 0 && len(p) > m {
		p = p[:m]
	}
	n, err := f.under.Read(p)
	f.corrupt(p[:n], f.pos)
	f.pos += int64(n)
	return n, err
}

func (f *injectFile) ReadAt(p []byte, off int64) (int, error) {
	if m := f.fs.cfg.MaxReadChunk; m > 0 && len(p) > m {
		p = p[:m]
	}
	n, err := f.under.ReadAt(p, off)
	f.corrupt(p[:n], off)
	return n, err
}

// corrupt applies configured bit flips to a buffer read from offset off.
func (f *injectFile) corrupt(p []byte, off int64) {
	for _, flip := range f.fs.cfg.Flips {
		if flip.Name != filepath.Base(f.name) {
			continue
		}
		if i := flip.Offset - off; i >= 0 && i < int64(len(p)) {
			p[i] ^= flip.Mask
		}
	}
}

func (f *injectFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.under.Seek(offset, whence)
	if err == nil {
		f.pos = pos
	}
	return pos, err
}

func (f *injectFile) Sync() error {
	f.fs.mu.Lock()
	n := f.fs.cfg.FailSyncAfter
	failNow := n >= 0 && f.fs.syncs >= n
	if failNow {
		f.fs.crashed = true
	}
	alreadyCrashed := f.fs.crashed
	f.fs.syncs++
	f.fs.mu.Unlock()
	if failNow || alreadyCrashed {
		return fmt.Errorf("fsync of %s: %w", f.name, ErrInjected)
	}
	return f.under.Sync()
}

func (f *injectFile) Truncate(size int64) error {
	if err := f.fs.mutate(); err != nil {
		return err
	}
	return f.under.Truncate(size)
}

func (f *injectFile) Close() error { return f.under.Close() }

// ReadFile reads a whole file through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf []byte
	chunk := make([]byte, 64<<10)
	for {
		n, err := f.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// WriteAtomic durably replaces path with the bytes that write produces:
// the content goes to path+".tmp", is fsynced, atomically renamed over
// path, and the directory is fsynced so the rename itself survives a
// crash. On any error the temporary file is removed and path is
// untouched.
func WriteAtomic(fsys FS, path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			_ = fsys.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// CrashPoints returns the write budgets a byte-cut crash matrix runs at,
// given the byte counts at which a clean run's operations became durable
// (ascending; the first is where the matrix starts). Each boundary is a
// cut, and so are the tears between two boundaries: one byte in, five
// bytes in (inside a record's 8-byte length + CRC frame), halfway through
// the payload after that frame, and one byte short of the next boundary.
func CrashPoints(boundaries []int64) []int64 {
	var cuts []int64
	for k, cur := range boundaries {
		cuts = append(cuts, cur)
		if k == 0 {
			continue
		}
		prev := boundaries[k-1]
		for _, c := range []int64{prev + 1, prev + 5, prev + 8 + (cur-prev-8)/2, cur - 1} {
			if c > prev && c < cur {
				cuts = append(cuts, c)
			}
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}
