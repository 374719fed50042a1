// Fault-injection tests for the log manager, in an external test package so
// they can use faultfs (which imports wal) without an import cycle.
package wal_test

import (
	"errors"
	"testing"
	"time"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

func commitBlock(t *testing.T, m *wal.Manager, payload []byte) uint64 {
	t.Helper()
	r, err := m.Reserve(len(payload), wal.BlockCommit)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	r.Append(payload)
	r.Commit()
	return r.Offset() + 1
}

// TestFlusherErrorPropagates: an injected I/O error inside the background
// flusher must surface in WaitDurable, Flush, Err, Reserve and Close — not
// vanish with the goroutine, leaving callers hung on a durability horizon
// that will never advance.
func TestFlusherErrorPropagates(t *testing.T) {
	// Op 1 is the first segment create; op 2 is the flusher's first WriteAt.
	inj := faultfs.NewInjector(wal.NewMemStorage(), faultfs.Plan{FailOp: 2})
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     inj,
		IdleSleep:   time.Hour, // flusher acts only when kicked
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	off := commitBlock(t, m, []byte("doomed payload"))

	errc := make(chan error, 1)
	go func() { errc <- m.WaitDurable(off) }()
	select {
	case err := <-errc:
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("WaitDurable error = %v, want ErrInjected", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitDurable hung after flusher death")
	}

	if err := m.Err(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Err() = %v", err)
	}
	if err := m.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Flush error = %v", err)
	}
	if _, err := m.Reserve(8, wal.BlockCommit); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Reserve after flusher death = %v", err)
	}
	if err := m.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Close error = %v", err)
	}
}

// TestSyncErrorPropagates: same, but the fault lands on the segment Sync
// instead of the WriteAt, exercising the syncRange path.
func TestSyncErrorPropagates(t *testing.T) {
	// Op 1 create, op 2 flusher write, op 3 flusher sync.
	inj := faultfs.NewInjector(wal.NewMemStorage(), faultfs.Plan{FailOp: 3})
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     inj,
		IdleSleep:   time.Hour,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := commitBlock(t, m, []byte("payload"))
	if err := m.WaitDurable(off); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable = %v, want ErrInjected", err)
	}
	m.Close()
}

// TestCrashMidLogLeavesRecoverablePrefix: crash the storage partway through
// a stream of commits; the manager reports the error, and Recover on the
// durable image yields a clean prefix of the committed blocks (no torn or
// reordered blocks).
func TestCrashMidLogLeavesRecoverablePrefix(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{CrashAtOp: 12})
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     inj,
		IdleSleep:   time.Hour,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var acked int
	for i := 0; i < 50; i++ {
		payload := []byte{byte(i), 0xAB, 0xCD}
		off := commitBlock(t, m, payload)
		if err := m.WaitDurable(off); err != nil {
			if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("commit %d: %v", i, err)
			}
			break
		}
		acked = i + 1
	}
	if acked == 0 || acked == 50 {
		t.Fatalf("crash plan ineffective: %d commits acked", acked)
	}
	m.Close()

	// Recover from what the medium durably holds.
	var got []byte
	res, err := wal.Recover(inner.Crash(), 0, func(b wal.Block) error {
		if b.Type == wal.BlockCommit {
			got = append(got, b.Payload[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil recover result")
	}
	// Every acked commit must be present, in order, then a clean cut.
	if len(got) < acked {
		t.Fatalf("recovered %d commits, %d were acked durable", len(got), acked)
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("recovered commit %d has payload %d: reordering or corruption", i, v)
		}
	}
}

// TestDroppedSyncsLoseEverything: a lying disk (syncs report success but
// persist nothing) plus a crash leaves an empty log, and Recover handles the
// zero-length segment file without error.
func TestDroppedSyncsLoseEverything(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{DropSyncs: true})
	m, err := wal.Open(wal.Config{
		SegmentSize: 1 << 16,
		BufferSize:  1 << 12,
		Storage:     inj,
		IdleSleep:   time.Hour,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off := commitBlock(t, m, []byte("never durable"))
	if err := m.WaitDurable(off); err != nil {
		t.Fatalf("lying disk acked durability, manager saw %v", err)
	}
	m.Close()

	n := 0
	res, err := wal.Recover(inner.Crash(), 0, func(wal.Block) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered %d blocks from a disk that never persisted", n)
	}
	_ = res
}
