package wal

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/xrand"
)

// frontierStorage is a MemStorage whose segment files check every write
// against the manager's flush frontier as it is issued.
type frontierStorage struct {
	*MemStorage
	m atomic.Pointer[Manager]

	mu    sync.Mutex
	fault string // the first violation seen
	fills int    // writes that carried zero-ahead fill
}

type frontierFile struct {
	File
	s          *frontierStorage
	start, end uint64
}

func (s *frontierStorage) Create(name string) (File, error) {
	f, err := s.MemStorage.Create(name)
	if err != nil {
		return nil, err
	}
	_, start, end, _ := parseSegmentName(name)
	return &frontierFile{File: f, s: s, start: start, end: end}, nil
}

func (s *frontierStorage) violate(format string, args ...any) {
	s.mu.Lock()
	if s.fault == "" {
		s.fault = fmt.Sprintf(format, args...)
	}
	s.mu.Unlock()
}

func (f *frontierFile) WriteAt(p []byte, off int64) (int, error) {
	m := f.s.m.Load()
	at, end := f.start+uint64(off), f.start+uint64(off)+uint64(len(p))
	if front := m.flushed.Load(); at < front {
		f.s.violate("write [%#x, %#x) starts below the flush frontier %#x", at, end, front)
	}
	if end > f.end {
		f.s.violate("write [%#x, %#x) grows the file past its segment's end %#x", at, end, f.end)
	}
	// Log data ends below the reserved end: whatever lies past it is fill.
	if resv := m.offset.Load(); end > resv {
		fill := p[max(resv, at)-at:]
		if !bytes.Equal(fill, make([]byte, len(fill))) {
			f.s.violate("write [%#x, %#x) carries non-zero bytes past the reserved end %#x", at, end, resv)
		}
		f.s.mu.Lock()
		f.s.fills++
		f.s.mu.Unlock()
	}
	return f.File.WriteAt(p, off)
}

// TestZeroAheadWritesOnlyAboveTheFrontier drives random-sized blocks
// through 8 KiB segments, where fill runs into the segment's end, and
// through segments larger than zeroAhead, where flushes cross the zeroed
// horizon far inside a segment; under the flusher and under SyncFlush. No write may start below the flush frontier or grow a
// file past its segment's end, fill must be zero, and a recovery after Close
// returns every block.
func TestZeroAheadWritesOnlyAboveTheFrontier(t *testing.T) {
	for _, c := range []struct {
		name      string
		seg, buf  uint64
		blocks    int
		syncFlush bool
	}{
		{"8KiB segments, flusher", 8 << 10, 4 << 10, 400, false},
		{"8KiB segments, SyncFlush", 8 << 10, 4 << 10, 400, true},
		{"1MiB segments, flusher", 1 << 20, 64 << 10, 4000, false},
		{"1MiB segments, SyncFlush", 1 << 20, 64 << 10, 4000, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := &frontierStorage{MemStorage: NewMemStorage()}
			m, err := Open(Config{SegmentSize: c.seg, BufferSize: c.buf, Storage: st,
				IdleSleep: 20 * time.Microsecond, SyncFlush: c.syncFlush}, nil)
			if err != nil {
				t.Fatal(err)
			}
			st.m.Store(m)
			rng := xrand.New(uint64(c.seg) + uint64(c.blocks))
			var want [][]byte
			for i := 0; i < c.blocks; i++ {
				p := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(min(1500, m.MaxPayload())))
				off := appendBlock(t, m, p)
				want = append(want, p)
				if rng.Intn(4) == 0 {
					if err := m.WaitDurable(off + 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if st.fault != "" {
				t.Fatal(st.fault)
			}
			segs, err := Segments(st)
			if err != nil {
				t.Fatal(err)
			}
			if st.fills < len(segs) {
				t.Errorf("%d writes carried fill over %d segments; want one per segment at least", st.fills, len(segs))
			}
			var got [][]byte
			if _, err := Recover(st.Crash(), 0, func(b Block) error {
				got = append(got, bytes.Clone(b.Payload))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("recovered %d blocks, wrote %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("block %d differs after recovery", i)
				}
			}
		})
	}
}

// TestZeroAheadFlushEndingAtSegmentEnd: a segment's first flush that fills
// it to the end leaves no room for fill; the next segment's fill must still
// be zero, not the bytes that flush staged.
func TestZeroAheadFlushEndingAtSegmentEnd(t *testing.T) {
	st := &frontierStorage{MemStorage: NewMemStorage()}
	m, err := Open(Config{SegmentSize: 8 << 10, BufferSize: 16 << 10, Storage: st, SyncFlush: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.m.Store(m)
	full := bytes.Repeat([]byte{'x'}, 2048-headerSize)
	for i := 0; i < 4; i++ { // exactly the first segment
		appendBlock(t, m, full)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, m, []byte("next segment"))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st.fault != "" {
		t.Fatal(st.fault)
	}
	if got, _ := recoverPayloads(t, st.Crash()); len(got) != 5 {
		t.Fatalf("recovered %d blocks, wrote 5", len(got))
	}
}

// TestZeroAheadLargeFlushAcrossTheRingEnd: a flush of zeroAhead/16 or
// more carries no fill, even when it wraps the ring and its last piece is
// short.
func TestZeroAheadLargeFlushAcrossTheRingEnd(t *testing.T) {
	st := &frontierStorage{MemStorage: NewMemStorage()}
	m, err := Open(Config{SegmentSize: 1 << 20, BufferSize: 64 << 10, Storage: st, SyncFlush: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.m.Store(m)
	block := make([]byte, 2048-headerSize)
	for m.CurrentOffset() < 20<<10 { // one 20 KiB flush
		appendBlock(t, m, block)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flushes run in chunks of half the ring: 32 KiB, then 18 KiB that
	// wrap the ring's end at 64 KiB and end in a 6 KiB piece.
	for m.CurrentOffset() < 70<<10 {
		appendBlock(t, m, block)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st.fault != "" {
		t.Fatal(st.fault)
	}
	if st.fills != 0 {
		t.Errorf("%d writes carried fill; every flush was 16 KiB or more", st.fills)
	}
}

// damagedLog writes n blocks through 8 KiB segments, closes the log and
// flips a checksum bit of block n/2. It returns the storage and the offset
// of every block; a recovery stops at block n/2.
func damagedLog(t *testing.T, n int) (*MemStorage, []uint64) {
	t.Helper()
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	var offs []uint64
	for i := 0; i < n; i++ {
		offs = append(offs, appendBlock(t, m, []byte(fmt.Sprintf("old-%03d", i))))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(st)
	if err != nil {
		t.Fatal(err)
	}
	hit := offs[n/2]
	for _, sm := range segs {
		if hit >= sm.Start && hit < sm.End {
			f, _ := st.Open(sm.Name)
			b := make([]byte, 1)
			f.ReadAt(b, int64(hit-sm.Start)+28)
			b[0] ^= 0x80
			f.WriteAt(b, int64(hit-sm.Start)+28)
			f.Sync()
		}
	}
	return st, offs
}

// recoverPayloads returns every block payload a scan of st yields.
func recoverPayloads(t *testing.T, st Storage) ([]string, *RecoverResult) {
	t.Helper()
	var got []string
	res, err := Recover(st, 0, func(b Block) error {
		got = append(got, string(b.Payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// TestRestartNeverRevivesDroppedBlocks: recovery stops at a damaged block
// and drops every block past it. One more incarnation appends and closes;
// the next recovery must not give the dropped blocks back. Inside the tail
// segment the restart seals them off (zero-ahead fill behind the new block
// also ends the scan); in later segment files they make Open refuse and name
// the file.
func TestRestartNeverRevivesDroppedBlocks(t *testing.T) {
	for _, n := range []int{100, 400} {
		st, offs := damagedLog(t, n)
		first, res := recoverPayloads(t, st)
		if len(first) != n/2 || res.NextOffset != offs[n/2] {
			t.Fatalf("%d blocks: first recovery yields %d blocks up to %#x; want %d up to %#x",
				n, len(first), res.NextOffset, n/2, offs[n/2])
		}
		m, err := Open(testConfig(st), res)
		if err != nil {
			later := false
			for _, sm := range res.Segments {
				later = later || (sm.Start > offs[n/2] && bytes.Contains([]byte(err.Error()), []byte(sm.Name)))
			}
			if !later {
				t.Fatalf("%d blocks: Open = %v; a refusal must name a segment past the damage", n, err)
			}
			continue
		}
		if n > 100 {
			t.Errorf("%d blocks: Open resumed a log whose later segment files hold valid blocks", n)
		}
		appendBlock(t, m, []byte("new"))
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		second, _ := recoverPayloads(t, st)
		want := append(first, "new")
		if fmt.Sprint(second) != fmt.Sprint(want) {
			t.Errorf("%d blocks: second recovery yields %d blocks; want the %d of the first plus the new one",
				n, len(second), len(first))
		}
	}
}

// TestResumeOverStaleBlocks: the tail segment holds valid-looking stale
// blocks past NextOffset. After a restart appends and closes, every byte
// below NextOffset is what it was, and the scan yields the recovered blocks
// followed by the new ones and nothing else.
func TestResumeOverStaleBlocks(t *testing.T) {
	st, offs := damagedLog(t, 100)
	first, res := recoverPayloads(t, st)
	segs, err := Segments(st)
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d segments (%v); want the whole log in one", len(segs), err)
	}
	image := func() []byte {
		f, _ := st.Open(segs[0].Name)
		b := make([]byte, res.NextOffset-segs[0].Start)
		f.ReadAt(b, 0)
		return b
	}
	before := image()

	m, err := Open(testConfig(st), res)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for i := 0; i < 3; i++ {
		fresh = append(fresh, fmt.Sprintf("new-%d", i))
		if off := appendBlock(t, m, []byte(fresh[i])); off < offs[len(offs)-1] {
			t.Errorf("new block at %#x, below the stale block at %#x", off, offs[len(offs)-1])
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(), before) {
		t.Error("bytes below NextOffset changed across the restart")
	}
	second, _ := recoverPayloads(t, st)
	if want := append(first, fresh...); fmt.Sprint(second) != fmt.Sprint(want) {
		t.Errorf("second recovery yields %q; want %q", second, want)
	}
}

// TestFlushAllocatesNothing: a warm small commit made durable in SyncFlush
// mode allocates nothing in the log manager: the zero-ahead stage is kept
// between flushes and the sync needs no list of files.
func TestFlushAllocatesNothing(t *testing.T) {
	m := mustOpen(t, Config{SegmentSize: 64 << 20, BufferSize: 1 << 20, SyncFlush: true})
	defer m.Close()
	payload := make([]byte, 300)
	commit := func() {
		r, err := m.Reserve(len(payload), BlockCommit)
		if err != nil {
			t.Fatal(err)
		}
		r.Append(payload)
		r.Commit()
		if err := m.WaitDurable(r.Offset() + 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ { // past the first zero-ahead horizons
		commit()
	}
	if n := testing.AllocsPerRun(500, commit); n != 0 {
		t.Errorf("commit + WaitDurable allocates %.0f times; want 0", n)
	}
}

// TestIdleFlusherAllocatesNothing: the flusher's idle wait reuses one timer.
func TestIdleFlusherAllocatesNothing(t *testing.T) {
	m := mustOpen(t, Config{IdleSleep: 20 * time.Microsecond})
	defer m.Close()
	time.Sleep(time.Millisecond)
	if n := testing.AllocsPerRun(20, func() { time.Sleep(time.Millisecond) }); n != 0 {
		t.Errorf("an idle millisecond allocates %.0f times; want 0", n)
	}
}
