package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Storage abstracts the medium holding log segment files and checkpoint
// blobs, so the engine can run against the heap in benchmarks (the paper
// writes to tmpfs) and against real files in recovery tests.
// Create, Remove and Rename are durable when they return; a file's bytes are
// durable only once synced.
type Storage interface {
	// Create makes (or truncates) a named file.
	Create(name string) (File, error)
	// Open opens an existing named file for reading and writing.
	Open(name string) (File, error)
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Remove deletes a named file.
	Remove(name string) error
	// Rename atomically replaces newName with oldName's file (POSIX rename
	// semantics: after a crash either the old name or the complete new name
	// exists, never a half-written new file). The checkpointer publishes
	// blobs through it.
	Rename(oldName, newName string) error
}

// File is a random-access file within a Storage.
type File interface {
	io.WriterAt
	io.ReaderAt
	// Size returns the current file length in bytes.
	Size() (int64, error)
	// Sync makes previous writes durable.
	Sync() error
	Close() error
}

// ---- In-memory storage ----

// MemStorage keeps files as heap buffers. It is the default medium for
// benchmarks and also powers crash-recovery tests: Crash() returns a copy of
// the durable state (only synced bytes survive), simulating power loss.
type MemStorage struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemStorage returns an empty in-memory storage.
func NewMemStorage() *MemStorage {
	return &MemStorage{files: make(map[string]*memFile)}
}

type memFile struct {
	mu      sync.Mutex
	data    []byte // volatile contents, what ReadAt observes
	durable []byte // last-synced image, what survives Crash
	dirty   []span // byte ranges written since the last Sync
}

// span is a half-open dirty byte range [off, end).
type span struct{ off, end int }

// Create implements Storage.
func (s *MemStorage) Create(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &memFile{}
	s.files[name] = f
	return f, nil
}

// Open implements Storage.
func (s *MemStorage) Open(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	return f, nil
}

// List implements Storage.
func (s *MemStorage) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Storage.
func (s *MemStorage) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// Rename implements Storage. The rename is atomic, and like Create and
// Remove durable: the directory metadata survives Crash.
func (s *MemStorage) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldName, os.ErrNotExist)
	}
	s.files[newName] = f
	delete(s.files, oldName)
	return nil
}

// Crash returns a new storage holding only the durable (synced) bytes of
// every file, simulating a machine crash for recovery tests. Writes issued
// after the last Sync — including overwrites of previously synced regions —
// are lost: the new storage reflects the file exactly as of its last Sync.
func (s *MemStorage) Crash() *MemStorage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := NewMemStorage()
	for name, f := range s.files {
		f.mu.Lock()
		img := append([]byte(nil), f.durable...)
		f.mu.Unlock()
		out.files[name] = &memFile{data: img, durable: append([]byte(nil), img...)}
	}
	return out
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := int(off) + len(p)
	if end > len(f.data) {
		if end <= cap(f.data) {
			f.data = f.data[:end]
		} else {
			// Grow with doubling so sequential appends stay amortized
			// O(1) instead of copying the whole file every write.
			newCap := 2 * cap(f.data)
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.data)
			f.data = grown
		}
	}
	copy(f.data[off:], p)
	f.markDirty(int(off), end)
	return len(p), nil
}

// markDirty records [off, end) as written-but-unsynced, coalescing with the
// previous range when the write extends it (the flusher's sequential-append
// pattern), so the dirty list stays short.
func (f *memFile) markDirty(off, end int) {
	if n := len(f.dirty); n > 0 {
		if last := &f.dirty[n-1]; off <= last.end && end >= last.off {
			if off < last.off {
				last.off = off
			}
			if end > last.end {
				last.end = end
			}
			return
		}
	}
	f.dirty = append(f.dirty, span{off, end})
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data)), nil
}

func (f *memFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.dirty {
		if s.end > len(f.durable) {
			if s.end <= cap(f.durable) {
				f.durable = f.durable[:s.end]
			} else {
				grown := make([]byte, s.end, cap(f.data))
				copy(grown, f.durable)
				f.durable = grown
			}
		}
		copy(f.durable[s.off:s.end], f.data[s.off:s.end])
	}
	f.dirty = f.dirty[:0]
	return nil
}

func (f *memFile) Close() error { return nil }

// ---- OS file storage ----

// DirStorage stores files in an OS directory.
type DirStorage struct {
	dir string
}

// NewDirStorage returns storage rooted at dir, creating it if needed.
func NewDirStorage(dir string) (*DirStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	return &DirStorage{dir: dir}, nil
}

// Create implements Storage, syncing the directory: a segment's synced
// commits are lost with a directory entry that is not durable.
func (s *DirStorage) Create(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements Storage.
func (s *DirStorage) Open(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// List implements Storage.
func (s *DirStorage) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Storage, syncing the directory.
func (s *DirStorage) Remove(name string) error {
	if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
		return err
	}
	return s.syncDir()
}

// Rename implements Storage via os.Rename, which is atomic on POSIX
// filesystems, and then syncs the directory so the new name is durable
// when Rename returns. A checkpoint publishes through Rename and then
// removes the log segments it replaces; POSIX orders those two directory
// changes only across a sync of the directory.
func (s *DirStorage) Rename(oldName, newName string) error {
	if err := os.Rename(filepath.Join(s.dir, oldName), filepath.Join(s.dir, newName)); err != nil {
		return err
	}
	return s.syncDir()
}

// syncDir makes the directory's entries durable.
func (s *DirStorage) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
