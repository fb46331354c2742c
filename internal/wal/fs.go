package wal

import (
	"io"
	"os"
	"path/filepath"

	"dfpr/internal/fault"
)

// FS is the narrow filesystem surface the durability layer runs on. It
// exists for one reason: fault injection. Production uses OSFS; tests wrap
// it with InjectFS to deal short writes, fsync failures and silent
// corruption at chosen operations, so every WAL error path is drilled
// without root privileges or device-mapper tricks.
type FS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
	ReadFile(name string) ([]byte, error)
	// ReadFileFrom reads name from byte offset off to its current end — the
	// incremental read a segment reader performs on each refill.
	ReadFileFrom(name string, off int64) ([]byte, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create truncates or creates name for writing.
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs the directory itself, making renames and creates in it
	// durable.
	SyncDir(dir string) error
}

// File is one open log or checkpoint file.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS returns the production filesystem.
func OSFS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadFileFrom(name string, off int64) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Sized from Stat as os.ReadFile does: one allocation, however large the
	// tail. Bytes appended after the Stat are left to the next read.
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, max(fi.Size()-off, 0))
	n, err := f.ReadAt(b, off)
	if err == io.EOF {
		err = nil // the file shrank since the Stat
	}
	return b[:n], err
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// InjectFS wraps base so every write and sync of files it opens passes
// through the injector. A nil injector returns base unchanged.
func InjectFS(base FS, in *fault.IOInjector) FS {
	if in == nil {
		return base
	}
	return &faultFS{FS: base, in: in}
}

type faultFS struct {
	FS
	in *fault.IOInjector
}

func (f *faultFS) OpenAppend(name string) (File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, in: f.in}, nil
}

func (f *faultFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, in: f.in}, nil
}

type faultFile struct {
	File
	in *fault.IOInjector
}

// Write persists what the injector allows through — a short or corrupted
// prefix on injected faults — and reports the injected error, mirroring how
// a real torn write leaves a prefix on media while the caller sees failure.
func (f *faultFile) Write(b []byte) (int, error) {
	persist, ierr := f.in.OnWrite(b)
	n := 0
	if len(persist) > 0 {
		var werr error
		n, werr = f.File.Write(persist)
		if werr != nil {
			return n, werr
		}
	}
	if ierr != nil {
		return n, ierr
	}
	return len(b), nil
}

func (f *faultFile) Sync() error {
	if err := f.in.OnSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
