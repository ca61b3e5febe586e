package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// faultFS wraps the real filesystem and injects one class of failure
// into temp-file writes or renames — the store-side counterpart of
// the chaos FS, kept dependency-free for this package's own tests.
type faultFS struct {
	FS
	writeErr  error // returned by File.Write on .put-* temps
	renameErr error // returned by Rename
	shortBy   int   // bytes silently dropped from each Write
}

func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(pattern, ".put-") {
		return file, nil
	}
	return &faultFile{File: file, writeErr: f.writeErr, shortBy: f.shortBy}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if f.renameErr != nil {
		return f.renameErr
	}
	return f.FS.Rename(oldpath, newpath)
}

type faultFile struct {
	File
	writeErr error
	shortBy  int
}

// Write fails outright, or drops the tail while reporting a full
// write — the lying-disk case an entry checksum exists to catch.
func (f *faultFile) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	if f.shortBy > 0 && len(p) > f.shortBy {
		if _, err := f.File.Write(p[:len(p)-f.shortBy]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return f.File.Write(p)
}

// strayFiles lists everything in dir that is not a store entry —
// leaked temp files, if any.
func strayFiles(t *testing.T, dir string) []string {
	t.Helper()
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var stray []string
	for _, de := range dirents {
		if filepath.Ext(de.Name()) != entryExt {
			stray = append(stray, de.Name())
		}
	}
	return stray
}

func TestPutWriteErrorLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected write error")
	s, err := Open(dir, WithFS(&faultFS{FS: OS(), writeErr: boom}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put("k1", []byte("payload")); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected write error", err)
	}
	if stray := strayFiles(t, dir); len(stray) != 0 {
		t.Fatalf("stray files after failed Put: %v", stray)
	}
	if _, n := s.Disk(); n != 0 {
		t.Fatalf("disk bytes after failed Put = %d, want 0 (nothing may count against MaxBytes)", n)
	}
	if s.Has("k1") {
		t.Fatal("entry exists after failed Put")
	}
}

func TestPutRenameErrorLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("injected rename error")
	ffs := &faultFS{FS: OS()}
	s, err := Open(dir, WithFS(ffs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ffs.renameErr = boom // after Open's probe, before the first Put
	if err := s.Put("k1", []byte("payload")); !errors.Is(err, boom) {
		t.Fatalf("Put error = %v, want injected rename error", err)
	}
	if stray := strayFiles(t, dir); len(stray) != 0 {
		t.Fatalf("stray files after failed rename: %v", stray)
	}
	if n, _ := s.Disk(); n != 0 {
		t.Fatalf("entries after failed rename = %d, want 0", n)
	}
}

func TestPutShortWriteReadsAsCorruptMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithFS(&faultFS{FS: OS(), shortBy: 4}))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Put("k1", []byte("payload-bytes")); err != nil {
		t.Fatalf("Put: %v (a lying short write is invisible at write time)", err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("Get served a truncated entry")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, "k1"+entryExt)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("truncated entry not removed after corrupt read: %v", err)
	}
}

func TestOpenFailsWhenProbeCannotBeCreated(t *testing.T) {
	probeFail := &faultFS{FS: failingTempFS{}}
	if _, err := Open(t.TempDir(), WithFS(probeFail)); err == nil {
		t.Fatal("Open succeeded with an unwritable filesystem")
	}
}

type failingTempFS struct{ osDelegate }

func (failingTempFS) CreateTemp(dir, pattern string) (File, error) {
	return nil, errors.New("injected: disk full")
}

// osDelegate embeds the real FS so failingTempFS only overrides
// CreateTemp.
type osDelegate struct{}

func (osDelegate) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osDelegate) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osDelegate) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osDelegate) Link(oldpath, newpath string) error           { return os.Link(oldpath, newpath) }
func (osDelegate) Remove(name string) error                     { return os.Remove(name) }
func (osDelegate) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osDelegate) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
