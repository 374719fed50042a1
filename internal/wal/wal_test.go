package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testConfig(st Storage) Config {
	return Config{
		SegmentSize: 8 << 10, // tiny segments to exercise rotation
		BufferSize:  4 << 10,
		Storage:     st,
		IdleSleep:   50 * time.Microsecond,
	}
}

func mustOpen(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// appendBlock reserves, fills, and commits one block, returning its offset.
func appendBlock(t testing.TB, m *Manager, payload []byte) uint64 {
	t.Helper()
	r, err := m.Reserve(len(payload), BlockCommit)
	if err != nil {
		t.Fatal(err)
	}
	r.Append(payload)
	r.Commit()
	return r.Offset()
}

func TestLSNEncoding(t *testing.T) {
	l := MakeLSN(0x12345, 7)
	if l.Offset() != 0x12345 {
		t.Errorf("offset = %#x", l.Offset())
	}
	if l.Segment() != 7 {
		t.Errorf("segment = %d", l.Segment())
	}
	// Low-order segment bits preserve offset ordering.
	a := MakeLSN(100, 15)
	b := MakeLSN(101, 0)
	if a >= b {
		t.Error("LSN order does not follow offset order")
	}
}

func TestReserveCommitScan(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		appendBlock(t, m, p)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	var lastOff uint64
	res, err := Recover(st, 0, func(b Block) error {
		if b.Type != BlockCommit {
			return fmt.Errorf("unexpected type %d", b.Type)
		}
		if b.LSN.Offset() <= lastOff {
			return fmt.Errorf("non-monotonic scan: %d after %d", b.LSN.Offset(), lastOff)
		}
		lastOff = b.LSN.Offset()
		got = append(got, append([]byte(nil), b.Payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d mismatch: %q vs %q", i, got[i], want[i])
		}
	}
	if res.NextOffset == 0 {
		t.Error("NextOffset not set")
	}
}

func TestSegmentRotation(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	// Write enough to cross several 8KiB segments.
	payload := make([]byte, 900)
	const n = 64
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		appendBlock(t, m, payload)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().SegmentOpens; got < 4 {
		t.Errorf("segment opens = %d, want several", got)
	}
	m.Close()

	count := 0
	if _, err := Recover(st, 0, func(b Block) error {
		if b.Type == BlockCommit {
			count++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("recovered %d commit blocks across segments, want %d", count, n)
	}
}

func TestAbortWritesSkip(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	appendBlock(t, m, []byte("live-1"))
	r, err := m.Reserve(100, BlockCommit)
	if err != nil {
		t.Fatal(err)
	}
	r.Append([]byte("this transaction aborts"))
	r.Abort()
	appendBlock(t, m, []byte("live-2"))
	m.Flush()
	m.Close()

	var got []string
	if _, err := Recover(st, 0, func(b Block) error {
		got = append(got, string(b.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "live-1" || got[1] != "live-2" {
		t.Fatalf("recovered %q, want the two live blocks", got)
	}
}

func TestCommitOffsetsTotallyOrdered(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	defer m.Close()
	const workers, per = 8, 200
	offs := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := []byte("worker payload ..............")
			for i := 0; i < per; i++ {
				offs[id] = append(offs[id], appendBlock(t, m, p))
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, list := range offs {
		last := uint64(0)
		for _, o := range list {
			if o <= last {
				t.Fatal("per-worker offsets not monotonic")
			}
			last = o
			if seen[o] {
				t.Fatalf("duplicate commit offset %d", o)
			}
			seen[o] = true
		}
	}
}

func TestConcurrentWritersRecoverAll(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	const workers, per = 6, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := []byte(fmt.Sprintf("w%d-i%d-%s", id, i, "xxxxxxxxxxxxxxxxxxxxxxxx"))
				appendBlock(t, m, p)
			}
		}(w)
	}
	wg.Wait()
	m.Flush()
	m.Close()

	count := 0
	if _, err := Recover(st, 0, func(b Block) error {
		if b.Type == BlockCommit {
			count++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != workers*per {
		t.Errorf("recovered %d blocks, want %d", count, workers*per)
	}
}

func TestWaitDurable(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	defer m.Close()
	off := appendBlock(t, m, []byte("durable me"))
	if err := m.WaitDurable(off + 1); err != nil {
		t.Fatal(err)
	}
	if m.DurableOffset() <= off {
		t.Errorf("durable = %d, want > %d", m.DurableOffset(), off)
	}
}

func TestCrashLosesOnlyTail(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	var durableCount int
	for i := 0; i < 30; i++ {
		off := appendBlock(t, m, []byte(fmt.Sprintf("block-%d", i)))
		if i == 19 {
			if err := m.WaitDurable(off + 1); err != nil {
				t.Fatal(err)
			}
			durableCount = 20
		}
	}
	// Crash without Flush: only synced bytes survive.
	crashed := st.Crash()
	m.Close()

	count := 0
	res, err := Recover(crashed, 0, func(b Block) error {
		if b.Type == BlockCommit {
			count++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count < durableCount {
		t.Errorf("recovered %d blocks, durable was %d: lost committed work", count, durableCount)
	}
	if count > 30 {
		t.Errorf("recovered %d blocks, only 30 written", count)
	}
	if res.NextOffset == 0 {
		t.Error("NextOffset unset after crash recovery")
	}
}

func TestResumeAfterRecovery(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	for i := 0; i < 10; i++ {
		appendBlock(t, m, []byte(fmt.Sprintf("first-run-%d", i)))
	}
	m.Flush()
	m.Close()

	res, err := Recover(st, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Open(testConfig(st), res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendBlock(t, m2, []byte(fmt.Sprintf("second-run-%d", i)))
	}
	m2.Flush()
	m2.Close()

	var got []string
	if _, err := Recover(st, 0, func(b Block) error {
		got = append(got, string(b.Payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("recovered %d blocks after resume, want 20", len(got))
	}
	if got[0] != "first-run-0" || got[19] != "second-run-9" {
		t.Errorf("unexpected block order: first=%q last=%q", got[0], got[19])
	}
}

func TestValidate(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	defer m.Close()
	off := appendBlock(t, m, []byte("hello"))
	seg := m.cur.Load()
	l := MakeLSN(off, seg.num)
	if got := m.Validate(l); got != Valid {
		t.Errorf("Validate(live) = %v", got)
	}
	// An offset far in the future with a stale segment number.
	if got := m.Validate(MakeLSN(1<<40, seg.num)); got != TooOld {
		t.Errorf("Validate(future offset) = %v", got)
	}
	if Valid.String() == "" || TooOld.String() == "" || DeadZone.String() == "" {
		t.Error("Validity strings empty")
	}
}

func TestOverflowChain(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	// Write a chain: two overflow blocks linked backward from a commit.
	r1, err := m.Reserve(64, BlockOverflow)
	if err != nil {
		t.Fatal(err)
	}
	r1.Append(bytes.Repeat([]byte{1}, 64))
	r1.Commit()

	r2, err := m.Reserve(64, BlockOverflow)
	if err != nil {
		t.Fatal(err)
	}
	r2.SetPrev(r1.Offset())
	r2.Append(bytes.Repeat([]byte{2}, 64))
	r2.Commit()

	r3, err := m.Reserve(16, BlockCommit)
	if err != nil {
		t.Fatal(err)
	}
	r3.SetPrev(r2.Offset())
	r3.Append(bytes.Repeat([]byte{3}, 16))
	r3.Commit()

	m.Flush()
	m.Close()

	byOff := map[uint64]Block{}
	res, err := Recover(st, 0, func(b Block) error {
		byOff[b.LSN.Offset()] = Block{LSN: b.LSN, Type: b.Type, Prev: b.Prev,
			Payload: append([]byte(nil), b.Payload...)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c, ok := byOff[r3.Offset()]
	if !ok || c.Type != BlockCommit {
		t.Fatal("commit block missing")
	}
	o2, ok := byOff[c.Prev]
	if !ok || o2.Type != BlockOverflow || o2.Payload[0] != 2 {
		t.Fatal("first overflow hop broken")
	}
	o1, ok := byOff[o2.Prev]
	if !ok || o1.Type != BlockOverflow || o1.Payload[0] != 1 {
		t.Fatal("second overflow hop broken")
	}
	if o1.Prev != 0 {
		t.Errorf("chain should end, prev = %d", o1.Prev)
	}
	// ReadBlock can follow the chain directly too.
	b, err := ReadBlock(st, res.Segments, c.LSN.Offset())
	if err != nil || b.Prev != r2.Offset() {
		t.Fatalf("ReadBlock: %v, prev=%d", err, b.Prev)
	}
}

func TestReserveTooLarge(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()
	if _, err := m.Reserve(m.MaxPayload()+1, BlockCommit); err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	if _, err := m.Reserve(m.MaxPayload(), BlockCommit); err != nil {
		t.Errorf("max payload rejected: %v", err)
	}
}

func TestClosedManagerRejects(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	m.Close()
	if _, err := m.Reserve(10, BlockCommit); err != ErrClosed {
		t.Errorf("Reserve after close: %v", err)
	}
}

func TestDirStorage(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := mustOpen(t, testConfig(st))
	for i := 0; i < 25; i++ {
		appendBlock(t, m, []byte(fmt.Sprintf("disk-%d-%s", i, string(make([]byte, 500)))))
	}
	m.Flush()
	m.Close()

	count := 0
	if _, err := Recover(st, 0, func(b Block) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 25 {
		t.Errorf("recovered %d from disk, want 25", count)
	}
}

func TestEmptyLogRecovery(t *testing.T) {
	res, err := Recover(NewMemStorage(), 0, func(Block) error {
		t.Fatal("callback on empty log")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NextOffset != Grain {
		t.Errorf("NextOffset = %d, want %d", res.NextOffset, Grain)
	}
}

func TestCurrentOffsetIsBeginStamp(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()
	begin := m.CurrentOffset()
	off := appendBlock(t, m, []byte("after begin"))
	if off < begin {
		t.Errorf("commit offset %d precedes begin stamp %d", off, begin)
	}
}

func TestStatsCounters(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()
	for i := 0; i < 10; i++ {
		appendBlock(t, m, make([]byte, 700))
	}
	s := m.Stats()
	if s.Reservations != 10 {
		t.Errorf("reservations = %d", s.Reservations)
	}
	m.Flush()
	if got := m.Stats().Durable; got == 0 {
		t.Error("durable horizon did not advance")
	}
}

func BenchmarkReserveCommit(b *testing.B) {
	m := mustOpen(b, Config{SegmentSize: 1 << 28, BufferSize: 8 << 20})
	defer m.Close()
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.Reserve(len(payload), BlockCommit)
		if err != nil {
			b.Fatal(err)
		}
		r.Append(payload)
		r.Commit()
	}
}

func BenchmarkReserveCommitParallel(b *testing.B) {
	m := mustOpen(b, Config{SegmentSize: 1 << 28, BufferSize: 8 << 20})
	defer m.Close()
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, 256)
		for pb.Next() {
			r, err := m.Reserve(len(payload), BlockCommit)
			if err != nil {
				b.Fatal(err)
			}
			r.Append(payload)
			r.Commit()
		}
	})
}

// TestCloseDrainsEveryCompletedBlock: Close makes every completed block
// durable, also when more than one flush chunk (half the ring) is pending.
func TestCloseDrainsEveryCompletedBlock(t *testing.T) {
	st := NewMemStorage()
	cfg := testConfig(st)
	cfg.IdleSleep = time.Hour // only Close wakes the flusher
	m := mustOpen(t, cfg)
	var offs []uint64
	for len(offs)*256 < int(cfg.BufferSize)*3/4 {
		offs = append(offs, appendBlock(t, m, make([]byte, 200)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := Recover(st.Crash(), 0, func(Block) error { n++; return nil }); err != nil || n != len(offs) {
		t.Fatalf("recovered %d of %d closed blocks (%v)", n, len(offs), err)
	}
}
