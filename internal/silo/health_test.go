package silo

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// TestDegradedServesReadsRefusesWrites: a log device failure degrades the
// Silo engine to read-only instead of silently dropping the commit.
// Snapshot and OCC readers keep committing; writers are refused; Reattach
// rewrites the refused block and restores full service with zero loss.
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

	// Kill the device: the flush that writes the next committed write's
	// block fails. The commit itself stands — group commit had not yet
	// promised durability — and its block stays buffered for Reattach.
	put(t, db, tbl, "buffered", "survives")
	inj.SetFailOp(inj.OpCount() + 1)
	if err := db.WaitDurable(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("flush on the dead device = %v, want the injected error", err)
	}
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

	// Heal and re-attach: the refused block is rewritten and made durable.
	// Reattach resumes the log in a fresh segment, so the refused bytes are
	// measured before it.
	refused := db.log.CurrentOffset() - durable
	inj.Heal()
	rep, err := db.Reattach(nil)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if rep.Replayed == 0 || rep.Replayed != refused {
		t.Fatalf("reattach rewrote %d bytes, want the buffered commit's %d", rep.Replayed, refused)
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

// TestReattachReplacementStorage: Reattach can point the log at a
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

	put(t, db, tbl, "c", "3")
	inj.SetFailOp(inj.OpCount() + 1)
	db.WaitDurable() // refused by the device; the block stays buffered
	if h := db.Health(); h.State != engine.Degraded {
		t.Fatalf("health = %v, want degraded", h)
	}

	refused := db.log.CurrentOffset() - durable
	repl := inner.Crash() // durable image of the dead device
	rep, err := db.Reattach(repl)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if !rep.NewDevice || rep.Replayed == 0 || rep.Replayed != refused {
		t.Fatalf("reattach report = %+v, want new device with the buffered block's %d bytes", rep, refused)
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

// TestReattachUnderConcurrentWriters: committers and the epoch ticker keep
// running while the device dies and Reattach repairs the log. The writer
// gate keeps every claim whole, so recovery finds every commit that
// returned nil, including those the dead device refused.
func TestReattachUnderConcurrentWriters(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{})
	db, err := Open(Config{EpochInterval: time.Millisecond, Storage: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")

	const writers = 4
	var (
		stop    atomic.Bool
		commits atomic.Int64
		wg      sync.WaitGroup
	)
	committed := make([][]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := fmt.Sprintf("w%d-%06d", w, i)
				txn := db.Begin(w)
				if err := txn.Insert(tbl, []byte(k), []byte("v")); err != nil {
					txn.Abort() // refused while degraded
					continue
				}
				if txn.Commit() == nil {
					committed[w] = append(committed[w], k)
					commits.Add(1)
				}
			}
		}(w)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	waitFor("commits before the fault", func() bool { return commits.Load() >= 200 })
	inj.SetFailOp(inj.OpCount() + 1)
	waitFor("the ticker's flush to degrade the DB", func() bool { return db.Health().State == engine.Degraded })
	inj.Heal()
	rep, err := db.Reattach(nil)
	if err != nil || rep.Lost != 0 {
		stop.Store(true)
		wg.Wait()
		t.Fatalf("reattach under writers = %+v, %v", rep, err)
	}
	healed := commits.Load()
	waitFor("commits after reattach", func() bool { return commits.Load() >= healed+200 })
	stop.Store(true)
	wg.Wait()
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	db2, err := Recover(Config{Storage: inner.Crash(), EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.Begin(0)
	defer txn.Abort()
	tbl2 := db2.OpenTable("t")
	for w, keys := range committed {
		for _, k := range keys {
			if _, err := txn.Get(tbl2, []byte(k)); err != nil {
				t.Fatalf("writer %d's committed %s lost: %v", w, k, err)
			}
		}
	}
}
