// Tests for Manager.Reattach: self-healing log re-attach after a transient
// device fault. External test package so faultfs can be used without an
// import cycle.
package wal_test

import (
	"errors"
	"testing"
	"time"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// recoverCommits returns the first payload byte of every commit block in the
// durable image of st, in log order.
func recoverCommits(t *testing.T, st *wal.MemStorage) []byte {
	t.Helper()
	var got []byte
	if _, err := wal.Recover(st.Crash(), 0, func(b wal.Block) error {
		if b.Type == wal.BlockCommit {
			got = append(got, b.Payload[0])
		}
		return nil
	}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return got
}

// openDoomedLog opens a log whose device fails its first sync, which is held
// until the returned release is called. Op 1 is the first segment create, op
// 2 the flusher's first WriteAt, op 3 its Sync. Whenever the flusher runs, the
// device dies only once the test has set up the ring and released the gate.
func openDoomedLog(t *testing.T) (m *wal.Manager, inner *wal.MemStorage, inj *faultfs.Injector, release func()) {
	t.Helper()
	inner = wal.NewMemStorage()
	inj = faultfs.NewInjector(inner, faultfs.Plan{FailOp: 3})
	gate := faultfs.NewSyncGate(inj, 0)
	gate.Hold()
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     gate,
		IdleSleep:   time.Hour, // flusher acts only when kicked
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, inner, inj, gate.Release
}

// TestReattachReplaysBufferedCommits: the device fails while committed work
// sits in the ring buffer. After the device heals, Reattach must replay that
// work to the log — transactions that committed in memory during the fault
// window lose nothing — and a claim abandoned mid-fault becomes a skip
// record, not a hole that stops recovery.
func TestReattachReplaysBufferedCommits(t *testing.T) {
	m, inner, inj, release := openDoomedLog(t)

	offA := commitBlock(t, m, []byte{'a'})
	// An unfinished reservation between two commits: its owner will never
	// complete it once the device dies (the mid-commit casualty).
	if _, err := m.Reserve(8, wal.BlockCommit); err != nil {
		t.Fatalf("reserve hole: %v", err)
	}
	commitBlock(t, m, []byte{'c'})

	release()
	if err := m.WaitDurable(offA); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable = %v, want ErrInjected", err)
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded after flusher death")
	}
	if _, err := m.Reserve(8, wal.BlockCommit); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Reserve while degraded = %v, want sticky error", err)
	}

	inj.Heal()
	rep, err := m.Reattach(nil)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if m.Err() != nil || m.Degraded() {
		t.Fatalf("still degraded after reattach: %v", m.Err())
	}
	if rep.Lost != 0 {
		t.Fatalf("replay path reported %d bytes lost", rep.Lost)
	}
	if rep.Replayed == 0 {
		t.Fatal("no bytes replayed despite buffered commits")
	}
	if rep.HolesFilled != 1 {
		t.Fatalf("HolesFilled = %d, want 1 (the abandoned reservation)", rep.HolesFilled)
	}
	if rep.NewSegment == "" || rep.NewSegment == rep.Sealed {
		t.Fatalf("bad rotation: sealed %q, new %q", rep.Sealed, rep.NewSegment)
	}

	// Post-heal writes land in the fresh segment and become durable.
	offD := commitBlock(t, m, []byte{'d'})
	if err := m.WaitDurable(offD); err != nil {
		t.Fatalf("WaitDurable after reattach: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	if got := recoverCommits(t, inner); string(got) != "acd" {
		t.Fatalf("recovered commits %q, want \"acd\"", got)
	}
}

// TestReattachAfterWrapReportsLoss: the ring buffer wrapped past data that
// never became durable, so Reattach cannot replay it. It must seal the log
// at the durable horizon, report the loss honestly, and keep every commit
// that was acknowledged durable before the fault.
func TestReattachAfterWrapReportsLoss(t *testing.T) {
	inner := wal.NewMemStorage()
	// Ops 1-3: segment create, write of block A, its sync. From op 4 every
	// operation fails until Heal — so once the ring fills, the caller-driven
	// flush can make no progress and allocation runs past ring capacity.
	inj := faultfs.NewInjector(inner, faultfs.Plan{FailFrom: 4})
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     inj,
		SyncFlush:   true, // deterministic: callers drive the flush pipeline
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	offA := commitBlock(t, m, []byte{'a'})
	if err := m.WaitDurable(offA); err != nil {
		t.Fatalf("WaitDurable(A): %v", err)
	}

	// Fill the ring until a reservation is forced to flush and hits the
	// dead device. Everything committed here was never acknowledged durable.
	var reserveErr error
	for i := 0; i < 1000; i++ {
		r, err := m.Reserve(64, wal.BlockCommit)
		if err != nil {
			reserveErr = err
			break
		}
		r.Append(make([]byte, 64))
		r.Commit()
	}
	if !errors.Is(reserveErr, faultfs.ErrInjected) {
		t.Fatalf("ring never overflowed into the fault: %v", reserveErr)
	}
	if !m.Degraded() {
		t.Fatal("manager not degraded")
	}

	inj.Heal()
	rep, err := m.Reattach(nil)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if rep.Lost == 0 {
		t.Fatal("wrapped ring reported no loss")
	}
	if rep.LostFrom < rep.Durable {
		t.Fatalf("seal point %#x below durable horizon %#x: acknowledged commits lost", rep.LostFrom, rep.Durable)
	}

	offD := commitBlock(t, m, []byte{'d'})
	if err := m.WaitDurable(offD); err != nil {
		t.Fatalf("WaitDurable after reattach: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The durable prefix (A) and the post-heal commit (D) survive; the
	// never-acknowledged middle is gone, with no torn blocks in between.
	if got := recoverCommits(t, inner); string(got) != "ad" {
		t.Fatalf("recovered commits %q, want \"ad\"", got)
	}
}

// TestReattachNotDegraded: Reattach on a healthy manager is a typed error.
func TestReattachNotDegraded(t *testing.T) {
	m, err := wal.Open(wal.Config{SegmentSize: 1 << 16, BufferSize: 1 << 12}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Reattach(nil); !errors.Is(err, wal.ErrNotDegraded) {
		t.Fatalf("Reattach on healthy manager = %v, want ErrNotDegraded", err)
	}
}

// TestReattachReplacementStorage: the healed device is a different Storage
// holding copies of the durable segment files (a replacement disk restored
// from the survivors). Reattach must adopt it and replay buffered work onto
// it.
func TestReattachReplacementStorage(t *testing.T) {
	m, inner, _, release := openDoomedLog(t)
	offA := commitBlock(t, m, []byte{'a'})
	commitBlock(t, m, []byte{'b'})
	release()
	if err := m.WaitDurable(offA); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable = %v", err)
	}

	// The replacement holds the durable image of the old device.
	repl := inner.Crash()
	rep, err := m.Reattach(repl)
	if err != nil {
		t.Fatalf("reattach to replacement: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("nothing replayed onto the replacement device")
	}

	offC := commitBlock(t, m, []byte{'c'})
	if err := m.WaitDurable(offC); err != nil {
		t.Fatalf("WaitDurable after reattach: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := recoverCommits(t, repl); string(got) != "abc" {
		t.Fatalf("recovered commits %q, want \"abc\"", got)
	}
}

// TestReattachHoleAtSegmentEndCrashSweep: a claim abandoned when the device
// failed ends exactly at its segment's end, and committed work follows it
// in the next segment. Reattach fills the hole with a skip record and
// replays the next segment. A crash at any point of that must leave a log
// that recovers and reopens: were the skip record not durable before the
// next segment's replay, a crash between them would leave a hole followed
// by a later segment holding valid blocks, which Open refuses as damage.
func TestReattachHoleAtSegmentEndCrashSweep(t *testing.T) {
	const segSize = 8 << 10
	inner := wal.NewMemStorage()
	rec := faultfs.NewRecorder(inner)
	// Op 1 creates the first segment, op 2 the second; op 3, the first
	// flush's write, fails.
	inj := faultfs.NewInjector(rec, faultfs.Plan{FailOp: 3})
	cfg := wal.Config{SegmentSize: segSize, BufferSize: 32 << 10, Storage: inj, SyncFlush: true}
	m, err := wal.Open(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	segEnd := m.CurrentOffset() + segSize
	offA := commitBlock(t, m, []byte{'a'})
	for m.CurrentOffset()+1024 < segEnd {
		commitBlock(t, m, make([]byte, 900))
	}
	hole := int(segEnd-m.CurrentOffset()) - wal.BlockHeaderSize
	if _, err := m.Reserve(hole, wal.BlockCommit); err != nil {
		t.Fatalf("reserve the hole: %v", err)
	}
	if m.CurrentOffset() != segEnd {
		t.Fatalf("the hole ends at %#x, not at the segment's end %#x", m.CurrentOffset(), segEnd)
	}
	offC := commitBlock(t, m, []byte{'c'})
	if offC < segEnd {
		t.Fatalf("block c at %#x is not in the next segment", offC)
	}
	if err := m.WaitDurable(offA); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable = %v, want ErrInjected", err)
	}
	inj.Heal()
	rep, err := m.Reattach(nil)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if rep.HolesFilled != 1 || rep.Lost != 0 {
		t.Fatalf("reattach filled %d holes and lost %d bytes; want 1 and 0", rep.HolesFilled, rep.Lost)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	tr := rec.Ops()
	pts := faultfs.Points(tr, 1, 0)
	for _, p := range pts {
		img, err := faultfs.CrashImage(tr, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		res, err := wal.Recover(img, 0, func(wal.Block) error { return nil })
		if err != nil {
			t.Fatalf("%v: recover: %v", p, err)
		}
		m2, err := wal.Open(wal.Config{SegmentSize: segSize, BufferSize: 32 << 10, Storage: img, SyncFlush: true}, res)
		if err != nil {
			t.Fatalf("%v: reopen after the crash: %v", p, err)
		}
		m2.Close()
	}
	t.Logf("%d crash points over %d operations", len(pts), len(tr))
	if got := recoverCommits(t, inner); len(got) == 0 || got[0] != 'a' || got[len(got)-1] != 'c' {
		t.Fatalf("recovered commits %q; want a first and c last", got)
	}
}
