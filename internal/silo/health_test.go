package silo

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// TestDegradedServesReadsRefusesWrites: a value-log device failure degrades
// the Silo engine to read-only instead of silently dropping the entry (the
// seed ignored WriteAt/Sync errors). Snapshot and OCC readers keep
// committing; writers are refused; Reattach rewrites the refused entries and
// restores full service with zero loss.
func TestDegradedServesReadsRefusesWrites(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{})
	db, err := Open(Config{Snapshots: true, EpochInterval: time.Hour, Storage: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	for i := 0; i < 8; i++ {
		put(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	db.AdvanceEpoch() // expose the inserts to snapshot readers
	db.AdvanceEpoch()
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if h := db.Health(); h.State != engine.Healthy {
		t.Fatalf("health = %v, want healthy", h)
	}
	durable := db.DurableOffset()

	// One transaction stages a write before the fault and will try to commit
	// after it.
	doomed := db.Begin(1)
	if err := doomed.Insert(tbl, []byte("doomed"), []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Kill the device: the next committed write's log append fails. The
	// commit itself stands — group commit had not yet promised durability —
	// and the entry is queued for Reattach.
	inj.SetFailOp(inj.OpCount() + 1)
	put(t, db, tbl, "buffered", "survives")
	if h := db.Health(); h.State != engine.Degraded || !errors.Is(h.Cause, faultfs.ErrInjected) {
		t.Fatalf("health = %v, want degraded with injected cause", h)
	}
	if err := db.WaitDurable(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable while degraded = %v, want sticky cause", err)
	}

	// The pre-fault writer is refused at commit, before installing anything.
	if err := doomed.Commit(); !errors.Is(err, engine.ErrReadOnlyDegraded) {
		t.Fatalf("commit while degraded = %v, want ErrReadOnlyDegraded", err)
	}

	// Reads keep committing: snapshot read-only and empty-write OCC.
	ro := db.BeginReadOnly(2)
	if v, err := ro.Get(tbl, []byte("k3")); err != nil || string(v) != "v3" {
		t.Fatalf("degraded snapshot read: %q, %v", v, err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("degraded read-only commit: %v", err)
	}
	empty := db.Begin(3)
	if v, err := empty.Get(tbl, []byte("buffered")); err != nil || string(v) != "survives" {
		t.Fatalf("degraded OCC read: %q, %v", v, err)
	}
	if err := empty.Commit(); err != nil {
		t.Fatalf("degraded empty-write commit: %v", err)
	}

	// New writes fail fast with the typed availability error.
	w := db.Begin(4)
	if err := w.Insert(tbl, []byte("nope"), []byte("x")); !errors.Is(err, engine.ErrReadOnlyDegraded) {
		t.Fatalf("degraded insert = %v, want ErrReadOnlyDegraded", err)
	}
	if err := w.Update(tbl, []byte("k1"), []byte("x")); !errors.Is(err, engine.ErrReadOnlyDegraded) {
		t.Fatalf("degraded update = %v, want ErrReadOnlyDegraded", err)
	}
	if err := w.Delete(tbl, []byte("k1")); !errors.Is(err, engine.ErrReadOnlyDegraded) {
		t.Fatalf("degraded delete = %v, want ErrReadOnlyDegraded", err)
	}
	w.Abort()

	// Heal and re-attach: the refused entry is rewritten and made durable.
	inj.Heal()
	rep, err := db.Reattach(nil)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if rep.Replayed == 0 || rep.Replayed != db.DurableOffset()-durable {
		t.Fatalf("reattach rewrote %d bytes, want the buffered commit's %d", rep.Replayed, db.DurableOffset()-durable)
	}
	if h := db.Health(); h.State != engine.Healthy || h.Cause != nil {
		t.Fatalf("health after reattach = %v, want healthy", h)
	}
	put(t, db, tbl, "post", "heal")
	if err := db.WaitDurable(); err != nil {
		t.Fatalf("durability after reattach: %v", err)
	}

	// Recovery from the durable image sees every committed write — including
	// the one the dead device refused — and no trace of the doomed txn.
	db.Close()
	db2, err := Recover(Config{Storage: inner.Crash(), EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.OpenTable("t")
	txn2 := db2.Begin(0)
	defer txn2.Abort()
	for i := 0; i < 8; i++ {
		if v, err := txn2.Get(tbl2, []byte(fmt.Sprintf("k%d", i))); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered k%d = %q, %v", i, v, err)
		}
	}
	if v, err := txn2.Get(tbl2, []byte("buffered")); err != nil || string(v) != "survives" {
		t.Fatalf("recovered buffered commit = %q, %v", v, err)
	}
	if v, err := txn2.Get(tbl2, []byte("post")); err != nil || string(v) != "heal" {
		t.Fatalf("recovered post = %q, %v", v, err)
	}
	if _, err := txn2.Get(tbl2, []byte("doomed")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("doomed transaction leaked into recovery: %v", err)
	}
}

// TestReattachReplacementStorage: Reattach can point the value log at a
// replacement device carrying the old one's durable image.
func TestReattachReplacementStorage(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{})
	db, err := Open(Config{EpochInterval: time.Hour, Storage: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	put(t, db, tbl, "a", "1")
	put(t, db, tbl, "b", "2")
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	durable := db.DurableOffset()

	inj.SetFailOp(inj.OpCount() + 1)
	put(t, db, tbl, "c", "3") // refused by the device, queued
	if h := db.Health(); h.State != engine.Degraded {
		t.Fatalf("health = %v, want degraded", h)
	}

	repl := inner.Crash() // durable image of the dead device
	rep, err := db.Reattach(repl)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if !rep.NewDevice || rep.Replayed == 0 || rep.Replayed != db.DurableOffset()-durable {
		t.Fatalf("reattach report = %+v, want new device with the queued entry's %d bytes", rep, db.DurableOffset()-durable)
	}
	put(t, db, tbl, "d", "4")
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	db.Close()
	db2, err := Recover(Config{Storage: repl, EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.OpenTable("t")
	txn := db2.Begin(0)
	defer txn.Abort()
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"} {
		if v, err := txn.Get(tbl2, []byte(k)); err != nil || string(v) != want {
			t.Fatalf("recovered %s = %q, %v (want %q)", k, v, err, want)
		}
	}
}

// TestCloseIsFailed: Close is the terminal health transition.
func TestCloseIsFailed(t *testing.T) {
	db, err := Open(Config{EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if h := db.Health(); h.State != engine.Failed {
		t.Fatalf("health after close = %v, want failed", h)
	}
	if _, err := db.Reattach(nil); err == nil {
		t.Fatal("reattach succeeded on a closed DB")
	}
}
