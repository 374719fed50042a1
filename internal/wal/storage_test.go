package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestCloseReleasesSegmentFiles: a manager over DirStorage closes its
// segment files in Close, so opening and closing one repeatedly leaks no
// descriptor.
func TestCloseReleasesSegmentFiles(t *testing.T) {
	cycle := func() {
		st, err := NewDirStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := mustOpen(t, testConfig(st))
		for i := 0; i < 40; i++ { // a few segments' worth
			appendBlock(t, m, make([]byte, 500))
		}
		if err := m.WaitDurable(m.CurrentOffset()); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up whatever the runtime opens once
	before := openFDs(t)
	for i := 0; i < 50; i++ {
		cycle()
	}
	if after := openFDs(t); after > before {
		t.Fatalf("50 open/close cycles left %d more descriptors open", after-before)
	}
}

// TestDirStorageRenameRoundTrip: a renamed file reads back under its new
// name, the old name is gone, and the directory sync behind each rename
// leaks no descriptor.
// TestDirStorageCreateRemoveRoundTrip: Create and Remove sync the directory
// and leak no descriptor doing it; removing a missing name still fails.
func TestDirStorageCreateRemoveRoundTrip(t *testing.T) {
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for i := 0; i < 25; i++ {
		f, err := st.Create("seg")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Remove("seg"); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(t); after > before {
		t.Fatalf("25 creates and removes left %d more descriptors open", after-before)
	}
	if names, err := st.List(); err != nil || len(names) != 0 {
		t.Fatalf("files left: %v (%v)", names, err)
	}
	if err := st.Remove("seg"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Remove of a missing file = %v", err)
	}
}

func TestDirStorageRenameRoundTrip(t *testing.T) {
	st, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rename := func(from, to string) {
		if err := st.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}
	f, err := st.Create("a.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("published"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rename("a.tmp", "a")
	before := openFDs(t)
	for i := 0; i < 25; i++ {
		rename("a", "b")
		rename("b", "a")
	}
	if after := openFDs(t); after > before {
		t.Fatalf("50 renames left %d more descriptors open", after-before)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("files after the renames: %v, want [a]", names)
	}
	g, err := st.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got := make([]byte, 9)
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "published" {
		t.Fatalf("renamed file reads %q", got)
	}
}

// TestCrashDropsUnsyncedBytes pins the crash model of MemStorage: a crash
// preserves the file exactly as of its last Sync. Appends after the sync are
// lost, and — the case a naive watermark implementation gets wrong —
// overwrites of already-synced regions are rolled back too, instead of being
// silently retained.
func TestCrashDropsUnsyncedBytes(t *testing.T) {
	st := NewMemStorage()
	f, err := st.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced tail append and unsynced overwrite of a synced region.
	if _, err := f.WriteAt([]byte(" and more"), 11); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HELLO"), 0); err != nil {
		t.Fatal(err)
	}

	// The live file sees both writes.
	live := make([]byte, 20)
	if n, err := f.ReadAt(live, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	} else if string(live[:n]) != "HELLO world and more" {
		t.Fatalf("live contents %q", live[:n])
	}

	crashed := st.Crash()
	cf, err := crashed.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	size, err := cf.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 11 {
		t.Fatalf("crashed size %d, want 11 (unsynced append retained)", size)
	}
	got := make([]byte, size)
	if _, err := cf.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("crashed contents %q, want %q (unsynced overwrite retained)", got, "hello world")
	}
}

// TestCrashImageIsIndependent verifies the crash image is a snapshot:
// writes to the original after Crash() must not leak into it.
func TestCrashImageIsIndependent(t *testing.T) {
	st := NewMemStorage()
	f, _ := st.Create("f")
	f.WriteAt([]byte("abcd"), 0)
	f.Sync()
	crashed := st.Crash()
	f.WriteAt([]byte("XXXX"), 0)
	f.Sync()

	cf, err := crashed.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	cf.ReadAt(got, 0)
	if !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("crash image mutated: %q", got)
	}
	// And the crash image itself accepts new writes + syncs (recovery
	// resumes the log on it).
	if _, err := cf.WriteAt([]byte("more"), 4); err != nil {
		t.Fatal(err)
	}
	if err := cf.Sync(); err != nil {
		t.Fatal(err)
	}
	second := crashed.Crash()
	sf, _ := second.Open("f")
	got = make([]byte, 8)
	sf.ReadAt(got, 0)
	if !bytes.Equal(got, []byte("abcdmore")) {
		t.Fatalf("resynced crash image %q", got)
	}
}

// TestSyncCoalescesSparseWrites exercises the dirty-span bookkeeping with
// out-of-order and overlapping writes between syncs.
func TestSyncCoalescesSparseWrites(t *testing.T) {
	st := NewMemStorage()
	f, _ := st.Create("f")
	f.WriteAt([]byte("cc"), 4) // sparse: leaves a zero gap at [0,4)
	f.WriteAt([]byte("aa"), 0)
	f.WriteAt([]byte("bb"), 2)
	f.Sync()
	crashed := st.Crash()
	cf, _ := crashed.Open("f")
	got := make([]byte, 6)
	cf.ReadAt(got, 0)
	if !bytes.Equal(got, []byte("aabbcc")) {
		t.Fatalf("synced sparse writes %q", got)
	}
}
