package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// collectTail drains a Tail until it catches up, returning every block.
func collectTail(t *testing.T, tail *Tail) []Block {
	t.Helper()
	out, err := drainTail(tail)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// drainTail reads a Tail until it catches up or fails.
func drainTail(tail *Tail) ([]Block, error) {
	var out []Block
	for {
		blocks, _, err := tail.Next(1 << 20)
		for _, b := range blocks {
			// Payloads alias the tail's scratch buffer; copy to retain.
			b.Payload = append([]byte(nil), b.Payload...)
			out = append(out, b)
		}
		if err != nil || len(blocks) == 0 {
			return out, err
		}
	}
}

// hookStorage hands out segment files that fail once closed, as OS files
// do, and runs hook (once) before the next read of any of them.
type hookStorage struct {
	*MemStorage
	hook func()
}

type hookFile struct {
	File
	st     *hookStorage
	closed atomic.Bool
}

func (s *hookStorage) Create(name string) (File, error) {
	f, err := s.MemStorage.Create(name)
	return &hookFile{File: f, st: s}, err
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if h := f.st.hook; h != nil {
		f.st.hook = nil
		h()
	}
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	return f.File.ReadAt(p, off)
}

func (f *hookFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// tailLog opens a SyncFlush manager over st, so the durable horizon moves
// only on Flush, and makes 100 commit blocks of 256 bytes durable across
// several segments. It returns the blocks' offsets.
func tailLog(t *testing.T, st Storage) (*Manager, []uint64) {
	cfg := testConfig(st)
	cfg.SyncFlush = true
	m := mustOpen(t, cfg)
	var offs []uint64
	for i := 0; i < 100; i++ {
		offs = append(offs, appendBlock(t, m, bytes.Repeat([]byte{byte(i)}, 200)))
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return m, offs
}

// editBlock rewrites the durable bytes of the block at off in place.
func editBlock(t *testing.T, m *Manager, off uint64, edit func(b []byte)) {
	t.Helper()
	seg := m.lookupSegment(off)
	b := make([]byte, 256)
	if _, err := seg.file.ReadAt(b, int64(off-seg.start)); err != nil {
		t.Fatal(err)
	}
	edit(b)
	if _, err := seg.file.WriteAt(b, int64(off-seg.start)); err != nil {
		t.Fatal(err)
	}
}

// TestTailAnswers pins what Next does with each thing it can find at its
// cursor. A block below the durable horizon whose header fields or checksum
// are wrong is an error naming its offset and segment. Unwritten space and
// a block that ends past the horizon give an empty batch, and the block is
// yielded once it is whole. A segment that Truncate removes mid-read is
// re-resolved, which puts the cursor below the oldest segment.
func TestTailAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(b []byte) // the block's 256 bytes, header first
	}{
		{"flipped payload byte", func(b []byte) { b[headerSize+3] ^= 0x10 }},
		{"size off the grain", func(b []byte) { b[4] += 8 }},
		{"size past the segment", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<20) }},
		{"size under the payload", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], Grain) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, offs := tailLog(t, NewMemStorage())
			defer m.Close()
			off := offs[len(offs)/2]
			editBlock(t, m, off, tc.edit)
			name := m.lookupSegment(off).name
			got, err := drainTail(m.TailFrom(Grain))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%#x", off)) ||
				!strings.Contains(err.Error(), name) {
				t.Fatalf("tail over a corrupt block at %#x in %s: %v; want an error naming both", off, name, err)
			}
			if n := len(got); n == 0 || got[n-1].LSN.Offset() >= off {
				t.Fatalf("tail yielded %d blocks before the corrupt one", n)
			}
		})
	}

	t.Run("unwritten header", func(t *testing.T) {
		m, offs := tailLog(t, NewMemStorage())
		defer m.Close()
		off := offs[len(offs)/2]
		var saved []byte
		editBlock(t, m, off, func(b []byte) {
			saved = append(saved, b...)
			clear(b[:headerSize])
		})
		tail := m.TailFrom(Grain)
		if _, err := drainTail(tail); err != nil || tail.Pos() != off {
			t.Fatalf("tail over unwritten space at %#x: pos %#x, %v; want it parked there", off, tail.Pos(), err)
		}
		editBlock(t, m, off, func(b []byte) { copy(b, saved) })
		got, err := drainTail(tail)
		if err != nil || len(got) == 0 || got[0].LSN.Offset() != off {
			t.Fatalf("tail after the header was written: %d blocks, %v; want the block at %#x", len(got), err, off)
		}
	})

	t.Run("block past the horizon", func(t *testing.T) {
		m, offs := tailLog(t, NewMemStorage())
		defer m.Close()
		off, durable := offs[len(offs)/2], m.durable.Load()
		m.durable.Store(off + Grain) // the horizon mid-block: flushed grains run ahead of a block's tail
		tail := m.TailFrom(Grain)
		if _, err := drainTail(tail); err != nil || tail.Pos() != off {
			t.Fatalf("tail over a block past the horizon at %#x: pos %#x, %v; want it parked there", off, tail.Pos(), err)
		}
		m.durable.Store(durable)
		got, err := drainTail(tail)
		if err != nil || len(got) != len(offs)-len(offs)/2 || got[0].LSN.Offset() != off {
			t.Fatalf("tail after the horizon moved: %d blocks, %v; want %d from %#x", len(got), err, len(offs)-len(offs)/2, off)
		}
	})

	t.Run("segment truncated mid-read", func(t *testing.T) {
		st := &hookStorage{MemStorage: NewMemStorage()}
		m, offs := tailLog(t, st)
		defer m.Close()
		var removed []string
		st.hook = func() {
			var err error
			if removed, err = m.Truncate(offs[len(offs)-1]); err != nil {
				t.Error(err)
			}
		}
		_, err := drainTail(m.TailFrom(Grain))
		if len(removed) == 0 || !errors.Is(err, ErrTailTruncated) {
			t.Fatalf("tail over a segment truncated mid-read (%d removed): %v; want ErrTailTruncated", len(removed), err)
		}
	})
}

// TestTailYieldsCommittedBlocks checks the basic contract: every committed,
// durable block comes back in offset order with its payload intact, and the
// cursor then reports caught-up without error.
func TestTailYieldsCommittedBlocks(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%02d", i))
		appendBlock(t, m, p)
		want = append(want, p)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collectTail(t, m.TailFrom(Grain))
	var commits [][]byte
	for _, b := range got {
		if b.Type == BlockCommit {
			commits = append(commits, b.Payload)
		}
	}
	if len(commits) != len(want) {
		t.Fatalf("tail yielded %d commit blocks, want %d", len(commits), len(want))
	}
	for i := range want {
		if !bytes.Equal(commits[i], want[i]) {
			t.Errorf("block %d payload = %q, want %q", i, commits[i], want[i])
		}
	}
	var last uint64
	for _, b := range got {
		if b.LSN.Offset() <= last {
			t.Fatalf("offsets not increasing: %#x after %#x", b.LSN.Offset(), last)
		}
		last = b.LSN.Offset()
	}
}

// TestTailCrossesSegmentsAndSkips drives the log across several tiny
// segments: the tail must skip dead zones silently but still yield the
// skip records (segment closers and absorbed aborts) a mirror needs.
func TestTailCrossesSegmentsAndSkips(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	payload := make([]byte, 512)
	n := 0
	for i := 0; i < 64; i++ {
		if i%7 == 3 {
			// Aborted reservation: becomes a skip record in the log.
			r, err := m.Reserve(len(payload), BlockCommit)
			if err != nil {
				t.Fatal(err)
			}
			r.Abort()
			continue
		}
		appendBlock(t, m, payload)
		n++
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collectTail(t, m.TailFrom(Grain))
	commits, skips := 0, 0
	segSeen := map[int]bool{}
	for _, b := range got {
		switch b.Type {
		case BlockCommit:
			commits++
		case BlockSkip:
			skips++
		}
	}
	if commits != n {
		t.Fatalf("tail yielded %d commits, want %d", commits, n)
	}
	if skips == 0 {
		t.Fatal("tail yielded no skip records; a mirror could not close segments")
	}
	// The workload above overflows one 8KiB segment many times over.
	var segs []SegmentMeta
	tail := m.TailFrom(Grain)
	for {
		blocks, sm, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) == 0 {
			break
		}
		segs = append(segs, sm...)
	}
	for _, sm := range segs {
		segSeen[sm.Num] = true
	}
	if len(segs) < 2 {
		t.Fatalf("tail crossed %d segments, want several (seen %v)", len(segs), segSeen)
	}
}

// TestTailStopsAtDurable checks that the tail never yields a block past the
// durable horizon: before Flush, nothing the flusher has not synced comes
// back.
func TestTailStopsAtDurable(t *testing.T) {
	cfg := testConfig(NewMemStorage())
	cfg.SyncFlush = true // durability advances only on explicit Flush
	m := mustOpen(t, cfg)
	defer m.Close()

	appendBlock(t, m, []byte("first"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, m, []byte("second")) // reserved+committed, not yet flushed

	tail := m.TailFrom(Grain)
	blocks, _, err := tail.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if bytes.Equal(b.Payload, []byte("second")) {
			t.Fatal("tail yielded a block past the durable horizon")
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks, _, err = tail.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		if bytes.Equal(b.Payload, []byte("second")) {
			found = true
		}
	}
	if !found {
		t.Fatal("tail never caught up to the newly durable block")
	}
}

// TestTailTruncated checks the re-seed signal: a cursor below the oldest
// live segment after a truncation fails with ErrTailTruncated, while a
// cursor below Grain on a fresh log just snaps forward.
func TestTailTruncated(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	// Fresh log: position 0 is merely invalid, not truncated.
	tail := m.TailFrom(0)
	if _, _, err := tail.Next(1 << 20); err != nil {
		t.Fatalf("fresh-log tail from 0: %v", err)
	}

	// Fill several segments, then truncate the oldest away.
	payload := make([]byte, 512)
	for i := 0; i < 64; i++ {
		appendBlock(t, m, payload)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	removed, err := m.Truncate(3 * 8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("truncate removed nothing; test needs more segments")
	}
	tail = m.TailFrom(Grain)
	if _, _, err := tail.Next(1 << 20); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("tail below truncation = %v, want ErrTailTruncated", err)
	}
}

// TestTailMirrorRoundTrip is the core byte-compatibility property: writing
// every tailed block (header + payload) into a fresh storage at the same
// offsets yields a log that wal.Recover reads back with identical commit
// blocks — the mirror a replica maintains really is a log.
func TestTailMirrorRoundTrip(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	var want [][]byte
	for i := 0; i < 48; i++ {
		p := []byte(fmt.Sprintf("rec-%03d", i))
		appendBlock(t, m, p)
		want = append(want, p)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	mirror := NewMemStorage()
	files := map[string]File{}
	tail := m.TailFrom(Grain)
	for {
		blocks, segs, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) == 0 {
			break
		}
		metas := map[string]SegmentMeta{}
		for _, sm := range segs {
			name := NewSegmentMeta(sm.Num, sm.Start, sm.End).Name
			metas[name] = sm
			if _, ok := files[name]; !ok {
				f, err := mirror.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				files[name] = f
			}
		}
		for _, b := range blocks {
			var dst File
			var start uint64
			for name, sm := range metas {
				if b.LSN.Offset() >= sm.Start && b.LSN.Offset() < sm.End {
					dst, start = files[name], sm.Start
				}
			}
			if dst == nil {
				t.Fatalf("block at %#x maps to no segment in batch", b.LSN.Offset())
			}
			buf := AppendBlock(nil, b.Type, b.LSN.Offset(), b.Size, b.Prev, b.Payload)
			if _, err := dst.WriteAt(buf, int64(b.LSN.Offset()-start)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var got [][]byte
	res, err := Recover(mirror, 0, func(b Block) error {
		if b.Type == BlockCommit {
			got = append(got, append([]byte(nil), b.Payload...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mirror recovered %d commits, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("mirror block %d = %q, want %q", i, got[i], want[i])
		}
	}
	if res.NextOffset != m.DurableOffset() {
		t.Errorf("mirror recovery horizon %#x != primary durable %#x", res.NextOffset, m.DurableOffset())
	}
}
