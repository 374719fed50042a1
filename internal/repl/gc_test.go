package repl_test

import (
	"strconv"
	"testing"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/repl"
)

// overwrite commits rounds updates of each of keys k0..k(n-1), one key per
// transaction, and returns the number of versions that made obsolete.
func overwrite(t *testing.T, db engine.DB, tbl engine.Table, n, rounds int, tag string) uint64 {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			tx := db.Begin(0)
			if err := tx.Update(tbl, []byte("k"+strconv.Itoa(i)), []byte(tag+strconv.Itoa(r))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return uint64(n * rounds)
}

// remove deletes keys prefix0..prefix(n-1), one per transaction, and returns
// the number of versions that made obsolete (each key's one live version;
// the tombstones go with their index entries and are not counted as pruned).
func remove(t *testing.T, db engine.DB, tbl engine.Table, prefix string, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := db.Begin(0)
		if err := tx.Delete(tbl, []byte(prefix+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return uint64(n)
}

// auditIndex asserts that the table's index holds exactly k0..k(keys-1):
// every deleted key has left it, on whatever path its delete arrived.
func auditIndex(t *testing.T, label string, db *core.DB, keys int, reclaimed uint64) {
	t.Helper()
	tbl := db.OpenTable("kv")
	tx := db.BeginReadOnly(1)
	defer tx.Abort()
	n := 0
	if err := tx.Scan(tbl, nil, nil, func(k, _ []byte) bool {
		if len(k) < 2 || k[0] != 'k' {
			t.Errorf("%s: scan sees %q", label, k)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if entries := tbl.(*core.Table).Len(); n != keys || entries != keys {
		t.Fatalf("%s: %d rows, %d index entries; want %d of each", label, n, entries, keys)
	}
	if got := db.Stats().IndexEntriesReclaimed.Load(); got != reclaimed {
		t.Fatalf("%s: IndexEntriesReclaimed = %d, want %d", label, got, reclaimed)
	}
}

// waitPruned polls until db has pruned exactly want versions and nothing is
// left queued, failing if it prunes more (a version some snapshot could
// still need) or never gets there.
func waitPruned(t *testing.T, label string, db *core.DB, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := db.Stats()
		pruned, pending := s.VersionsPruned.Load(), s.GCPending.Load()
		if pruned > want {
			t.Fatalf("%s: pruned %d versions, only %d were ever overwritten", label, pruned, want)
		}
		if pruned == want && pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: pruned %d of %d overwritten versions, %d pending", label, pruned, want, pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicaGCFollowsTheApplier: a replica finds its garbage from the
// overwrites its applier installs, drained on the applier's own cadence, and
// a promoted replica from its workers' commits like any primary. With no
// reader open, every overwritten version — no more, no fewer — is pruned,
// which is what a sweep of every chain would have removed, and every deleted
// key leaves the index on the same cadence.
func TestReplicaGCFollowsTheApplier(t *testing.T) {
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	const keys, doomed = 40, 12
	fill(t, db, tbl, "k", keys)
	fill(t, db, tbl, "x", doomed)

	r, err := repl.Start(repl.Config{
		PrimaryAddr:    addr,
		ReconnectDelay: 10 * time.Millisecond,
		GCEveryBlocks:  1,
		Core:           core.Config{GCInterval: time.Millisecond}, // takes effect at promotion
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	garbage := remove(t, db, tbl, "x", doomed)
	garbage += overwrite(t, db, tbl, keys, 5, "a")
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.DurableOffset())
	// The watermark is published before the block's GC round runs, so the
	// last block's overwrite may still be queued when waitWatermark returns.
	rs := r.DB().Stats()
	if pruned := rs.VersionsPruned.Load(); pruned+1 < garbage || pruned > garbage {
		t.Fatalf("replica pruned %d of %d overwritten versions on the applier's cadence", pruned, garbage)
	}
	audit := func(label string, edb engine.DB, want string) {
		t.Helper()
		tx := edb.BeginReadOnly(1)
		defer tx.Abort()
		for i := 0; i < keys; i++ {
			if v, err := tx.Get(edb.OpenTable("kv"), []byte("k"+strconv.Itoa(i))); err != nil || string(v) != want {
				t.Fatalf("%s: k%d = %q, %v; want %q", label, i, v, err, want)
			}
		}
	}
	audit("replica", r.DB(), "a4")
	auditIndex(t, "replica", r.DB(), keys, doomed)

	if err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	waitPruned(t, "promoted, applier's backlog", r.DB(), garbage)
	garbage += overwrite(t, r.DB(), r.DB().OpenTable("kv"), keys, 3, "b")
	fill(t, r.DB(), r.DB().OpenTable("kv"), "x", doomed) // new OIDs: the old ones are sealed
	garbage += remove(t, r.DB(), r.DB().OpenTable("kv"), "x", doomed)
	waitPruned(t, "promoted, own commits", r.DB(), garbage)
	audit("promoted", r.DB(), "b2")
	auditIndex(t, "promoted", r.DB(), keys, 2*doomed)
}
