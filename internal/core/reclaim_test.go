package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ermia/internal/engine"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// Index-entry reclamation: a deleted record's key leaves the index once no
// snapshot can see the record alive, and an aborted insert's key leaves it
// at once. These tests pin who may still see what while that happens.

func del(t testing.TB, db *DB, tbl engine.Table, key string) {
	t.Helper()
	txn := db.Begin(0)
	if err := txn.Delete(tbl, []byte(key)); err != nil {
		t.Fatalf("delete %s: %v", key, err)
	}
	mustCommit(t, txn)
}

func get(txn engine.Txn, tbl engine.Table, key string) (string, bool) {
	v, err := txn.Get(tbl, []byte(key))
	return string(v), err == nil
}

func TestDeletedKeyLeavesIndex(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	tab := tbl.(*Table)
	for i := 0; i < 100; i++ {
		put(t, db, tbl, fmt.Sprintf("k%03d", i), "v")
	}
	for i := 0; i < 100; i += 2 {
		del(t, db, tbl, fmt.Sprintf("k%03d", i))
	}
	if tab.Len() != 100 {
		t.Fatalf("index has %d entries before GC, want 100 (tombstones keep their keys until collected)", tab.Len())
	}
	db.RunGC()
	if got := db.Stats().IndexEntriesReclaimed.Load(); tab.Len() != 50 || got != 50 {
		t.Fatalf("after GC: %d index entries, %d reclaimed; want 50 and 50", tab.Len(), got)
	}
	if n := tab.unreachableChains(); n != 0 {
		t.Fatalf("%d version chains the index does not reach", n)
	}
	// Gone means gone for every operation, and the key is free to return.
	txn := db.Begin(1)
	if _, ok := get(txn, tbl, "k000"); ok {
		t.Fatal("reclaimed key still readable")
	}
	if err := txn.Update(tbl, []byte("k000"), []byte("x")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("update of a reclaimed key: %v, want ErrNotFound", err)
	}
	if err := txn.Delete(tbl, []byte("k000")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("delete of a reclaimed key: %v, want ErrNotFound", err)
	}
	if err := txn.Insert(tbl, []byte("k000"), []byte("again")); err != nil {
		t.Fatalf("re-insert of a reclaimed key: %v", err)
	}
	mustCommit(t, txn)
	txn = db.Begin(1)
	defer txn.Abort()
	if v, ok := get(txn, tbl, "k000"); !ok || v != "again" {
		t.Fatalf("re-inserted key reads %q, %v", v, ok)
	}
	n := 0
	txn.Scan(tbl, nil, nil, func(_, _ []byte) bool { n++; return true })
	if n != 51 || tab.Len() != 51 {
		t.Fatalf("scan sees %d rows, index has %d entries; want 51", n, tab.Len())
	}
}

// A reader whose snapshot predates the delete pins the horizon: the key, the
// OID and the old version all stay until it ends.
func TestReclaimWaitsForOlderSnapshot(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	tab := tbl.(*Table)
	put(t, db, tbl, "k", "v1")
	put(t, db, tbl, "other", "x")
	reader := db.BeginReadOnly(5)
	del(t, db, tbl, "k")
	for i := 0; i < 3; i++ {
		db.RunGC()
	}
	if tab.Len() != 2 || db.Stats().IndexEntriesReclaimed.Load() != 0 {
		t.Fatalf("key reclaimed under an older snapshot: %d entries, %d reclaimed",
			tab.Len(), db.Stats().IndexEntriesReclaimed.Load())
	}
	if v, ok := get(reader, tbl, "k"); !ok || v != "v1" {
		t.Fatalf("older snapshot reads %q, %v; want v1", v, ok)
	}
	// A snapshot taken after the delete does not hold it back on its own.
	late := db.BeginReadOnly(6)
	if _, ok := get(late, tbl, "k"); ok {
		t.Fatal("deleted key visible to a later snapshot")
	}
	reader.Abort()
	db.RunGC()
	if tab.Len() != 1 || db.Stats().IndexEntriesReclaimed.Load() != 1 {
		t.Fatalf("after the reader ended: %d entries, %d reclaimed; want 1 and 1",
			tab.Len(), db.Stats().IndexEntriesReclaimed.Load())
	}
	if _, ok := get(late, tbl, "k"); ok {
		t.Fatal("reclaimed key visible")
	}
	late.Abort()
}

// The node set's half of the serializability argument. T1 reads a key that
// is absent by tombstone; the collector takes the tombstone and the key away,
// so the re-insert gets a new OID and shares no version with T1's read. The
// leaf is in T1's node set, the re-insert changes the leaf before T1 reaches
// pre-commit, and T1 must abort. The removal alone, of an entry no snapshot
// could see, must not fail T1. (An insert that comes after T1's pre-commit,
// or was in the leaf before T1's read, is the stamps' half:
// TestAbsentReadsAreOrdered.)
func TestPhantomAfterReclaim(t *testing.T) {
	for _, reinsert := range []bool{false, true} {
		db := testDB(t, true)
		tbl := db.CreateTable("t")
		put(t, db, tbl, "k", "v1")
		put(t, db, tbl, "elsewhere", "x")
		del(t, db, tbl, "k")

		t1 := db.Begin(1)
		if _, ok := get(t1, tbl, "k"); ok {
			t.Fatal("deleted key visible")
		}
		db.RunGC()
		if db.Stats().IndexEntriesReclaimed.Load() != 1 {
			t.Fatal("the tombstone T1 read was not reclaimed under it")
		}
		if reinsert {
			put(t, db, tbl, "k", "v2") // T2
		}
		if err := t1.Update(tbl, []byte("elsewhere"), []byte("y")); err != nil {
			t.Fatal(err)
		}
		err := t1.Commit()
		switch {
		case reinsert && !errors.Is(err, engine.ErrPhantom):
			t.Fatalf("T1 read k absent, T2 re-inserted it and committed: T1's commit = %v, want ErrPhantom", err)
		case !reinsert && err != nil:
			t.Fatalf("removing a dead key failed a scanner's validation: %v", err)
		}
		if got := db.Stats().PhantomAborts.Load(); (got == 1) != reinsert {
			t.Fatalf("PhantomAborts = %d with reinsert=%v", got, reinsert)
		}
	}
}

// What the node set cannot order, stamps must: the reader that found a key
// absent may commit before the insert reaches the leaf, or may meet the
// insert already there but not yet visible. Each case below closes a two-
// transaction cycle through such a read unless somebody aborts — on a key the
// collector reclaimed, and on one that never existed.
func TestAbsentReadsAreOrdered(t *testing.T) {
	setup := func(t *testing.T, reclaimed bool) (*DB, engine.Table) {
		db := testDB(t, true)
		tbl := db.CreateTable("t")
		put(t, db, tbl, "x", "x0")
		put(t, db, tbl, "y", "y0")
		if reclaimed {
			put(t, db, tbl, "k", "v1")
			del(t, db, tbl, "k")
			db.RunGC()
			if db.Stats().IndexEntriesReclaimed.Load() != 1 {
				t.Fatal("k was not reclaimed")
			}
		}
		return db, tbl
	}
	mustFail := func(t *testing.T, what string, err error) {
		t.Helper()
		if !engine.IsRetryable(err) {
			t.Fatalf("%s: %v, want a serialization failure", what, err)
		}
	}
	for _, reclaimed := range []bool{true, false} {
		name := map[bool]string{true: "reclaimed", false: "never-existed"}[reclaimed]

		// T1 reads k absent, overwrites x and commits; T2, which read the old
		// x, then inserts k. T1 -rw(k)-> T2 -rw(x)-> T1.
		t.Run(name+"/reader-commits-first", func(t *testing.T) {
			db, tbl := setup(t, reclaimed)
			t2, t1 := db.Begin(2), db.Begin(1)
			if _, ok := get(t1, tbl, "k"); ok {
				t.Fatal("k visible")
			}
			if err := t1.Update(tbl, []byte("x"), []byte("x1")); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, t1)
			if v, _ := get(t2, tbl, "x"); v != "x0" {
				t.Fatalf("T2 reads x = %q, want its snapshot's x0", v)
			}
			err := t2.Insert(tbl, []byte("k"), []byte("v2"))
			if err == nil {
				err = t2.Commit()
			} else {
				t2.Abort()
			}
			mustFail(t, "T2 inserted the key T1 read absent, after reading what T1 overwrote", err)
		})

		// T2 reads x, inserts k and commits; T1, whose snapshot is older,
		// finds k in the index but not in its snapshot, and overwrites x.
		// T1 -rw(k)-> T2 -rw(x)-> T1 again, met from the other side.
		t.Run(name+"/inserter-commits-first", func(t *testing.T) {
			db, tbl := setup(t, reclaimed)
			t1, t2 := db.Begin(1), db.Begin(2)
			if v, _ := get(t2, tbl, "x"); v != "x0" {
				t.Fatal("x")
			}
			if err := t2.Insert(tbl, []byte("k"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, t2)
			if _, ok := get(t1, tbl, "k"); ok {
				t.Fatal("T1 sees an insert that committed after its snapshot")
			}
			err := t1.Update(tbl, []byte("x"), []byte("x1"))
			if err == nil {
				err = t1.Commit()
			} else {
				t1.Abort()
			}
			mustFail(t, "T1 overwrote what T2 read, after missing T2's insert", err)
		})

		// The same with T2 still in flight when T1 reads: T1 commits first and
		// T2 must find T1's stamp on the absent version it overwrote.
		t.Run(name+"/inserter-in-flight", func(t *testing.T) {
			db, tbl := setup(t, reclaimed)
			t1, t2 := db.Begin(1), db.Begin(2)
			if v, _ := get(t2, tbl, "x"); v != "x0" {
				t.Fatal("x")
			}
			if err := t2.Insert(tbl, []byte("k"), []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if _, ok := get(t1, tbl, "k"); ok {
				t.Fatal("T1 sees an uncommitted insert")
			}
			if err := t1.Update(tbl, []byte("x"), []byte("x1")); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, t1)
			mustFail(t, "T2 committed an insert T1 missed, having read what T1 overwrote", t2.Commit())
		})

		// A read-only transaction closes a cycle too: T1 sees T3's update of y
		// but not T2's insert of k, and T2 read the y that T3 overwrote, so
		// T2 -rw(y)-> T3 -wr(y)-> T1 -rw(k)-> T2.
		for _, insertFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/read-only/insert-first=%v", name, insertFirst), func(t *testing.T) {
				db, tbl := setup(t, reclaimed)
				t2 := db.Begin(2)
				if v, _ := get(t2, tbl, "y"); v != "y0" {
					t.Fatal("y")
				}
				t3 := db.Begin(3)
				if err := t3.Update(tbl, []byte("y"), []byte("y1")); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, t3)
				t1 := db.BeginReadOnly(1)
				if v, _ := get(t1, tbl, "y"); v != "y1" {
					t.Fatal("T1 must see T3")
				}
				if _, ok := get(t1, tbl, "k"); ok {
					t.Fatal("k visible")
				}
				var err1, err2 error
				if insertFirst {
					err2 = t2.Insert(tbl, []byte("k"), []byte("v2"))
					err1 = t1.Commit()
				} else {
					err1 = t1.Commit()
					err2 = t2.Insert(tbl, []byte("k"), []byte("v2"))
				}
				if err2 == nil {
					err2 = t2.Commit()
				} else {
					t2.Abort()
				}
				if err1 == nil && err2 == nil {
					t.Fatal("the reader and the inserter both committed")
				}
			})
		}
	}
}

// Finding a reclaimed key absent is reading its delete, tombstone or no
// tombstone. X reads k and overwrites y; D deletes k; R begins, X commits, the
// collector takes k's tombstone and index entry; R finds k gone and reads the
// y that X overwrote. D -wr(k)-> R -rw(y)-> X -rw(k)-> D, unless R takes D's
// stamp from somewhere — with the tombstone in place, from the tombstone.
func TestReclaimedDeleteIsStillRead(t *testing.T) {
	for _, reclaim := range []bool{false, true} {
		for _, reinsert := range []bool{false, true} {
			t.Run(fmt.Sprintf("reclaim=%v/reinsert=%v", reclaim, reinsert), func(t *testing.T) {
				db := testDB(t, true)
				tbl := db.CreateTable("t")
				put(t, db, tbl, "k", "v1")
				put(t, db, tbl, "y", "y0")
				x := db.Begin(1)
				if _, ok := get(x, tbl, "k"); !ok {
					t.Fatal("k")
				}
				del(t, db, tbl, "k") // D
				r := db.Begin(2)
				if err := x.Update(tbl, []byte("y"), []byte("y1")); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, x)
				if reclaim {
					db.RunGC()
				}
				if got := db.Stats().IndexEntriesReclaimed.Load(); (got == 1) != reclaim {
					t.Fatalf("%d entries reclaimed", got)
				}
				if v, _ := get(r, tbl, "y"); v != "y0" {
					t.Fatalf("R reads y = %q, want its snapshot's y0", v)
				}
				var err error
				if reinsert {
					err = r.Insert(tbl, []byte("k"), []byte("v2"))
				} else if _, ok := get(r, tbl, "k"); ok {
					t.Fatal("deleted key visible")
				}
				if err == nil {
					err = r.Commit()
				} else {
					r.Abort()
				}
				if !engine.IsRetryable(err) {
					t.Fatalf("R saw D's delete and missed X's update, and X had missed the delete: R's outcome = %v, want a serialization failure", err)
				}
			})
		}
	}
}

// Satellite: an aborted insert takes its key back out of the index.
func TestAbortedInsertsLeaveNoIndexEntries(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	tab := tbl.(*Table)
	put(t, db, tbl, "seed", "v")
	start := tab.Len()
	for i := 0; i < 10000; {
		txn := db.Begin(0)
		for j := 0; j < 50; j, i = j+1, i+1 {
			if err := txn.Insert(tbl, []byte(fmt.Sprintf("a%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		txn.Abort()
	}
	if tab.Len() != start {
		t.Fatalf("10000 aborted inserts left the index at %d entries, started at %d", tab.Len(), start)
	}
	if n := tab.unreachableChains(); n != 0 {
		t.Fatalf("%d version chains left behind", n)
	}
	// Insert and delete in one transaction, committed: nothing is logged, and
	// the lone tombstone it leaves is reclaimed like any other.
	txn := db.Begin(0)
	if err := txn.Insert(tbl, []byte("ephemeral"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(tbl, []byte("ephemeral")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, txn)
	db.RunGC()
	if tab.Len() != start {
		t.Fatalf("insert+delete in one transaction left the index at %d entries, want %d", tab.Len(), start)
	}
}

// An insert that aborts and an insert of the same key that commits, racing:
// the abort's unlink is conditional on the OID it sealed, so it can never
// take the committed insert's entry with it.
func TestAbortedInsertNeverLosesACommittedOne(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	tab := tbl.(*Table)
	const keys = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // aborts every insert
		defer wg.Done()
		for i := 0; i < keys; i++ {
			txn := db.Begin(1)
			txn.Insert(tbl, wkey(i), []byte("aborted")) // may lose to the committer
			txn.Abort()
		}
	}()
	go func() { // commits every insert, retrying through conflicts
		defer wg.Done()
		for i := 0; i < keys; i++ {
			for {
				txn := db.Begin(2)
				err := txn.Insert(tbl, wkey(i), []byte("committed"))
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Abort()
				}
				if err == nil {
					break
				}
				if !engine.IsRetryable(err) {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	for i := 0; i < keys; i++ {
		if v, ok := get(txn, tbl, string(wkey(i))); !ok || v != "committed" {
			t.Fatalf("key %d reads %q, %v after its insert committed", i, v, ok)
		}
	}
	if tab.Len() != keys || tab.unreachableChains() != 0 {
		t.Fatalf("index has %d entries for %d rows, %d unreachable chains", tab.Len(), keys, tab.unreachableChains())
	}
}

// Delete → GC → re-insert of the same keys from four goroutines, with the
// collector running flat out beside them. Every operation first reads what
// is there, so the committed operations on a key must chain: each inserted
// value is deleted at most once, by a delete that saw exactly it, and what is
// left at the end is the one insert nobody deleted.
func TestReclaimRacesReinsert(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runReclaimRace(t, seed) })
	}
}

func runReclaimRace(t *testing.T, seed uint64) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	tab := tbl.(*Table)
	const keys, workers, per = 8, 4, 1500

	type op struct {
		key      int
		inserted string // value this insert created, or
		deleted  string // value this delete removed
	}
	var mu sync.Mutex
	var committed []op

	var stop atomic.Bool
	var gcDone sync.WaitGroup
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for !stop.Load() {
			db.RunGC()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(seed, uint64(id))
			for i := 0; i < per; i++ {
				k := rng.Intn(keys)
				key := []byte(fmt.Sprintf("k%d", k))
				txn := db.Begin(id + 1)
				cur, err := txn.Get(tbl, key)
				o := op{key: k}
				switch {
				case err == nil:
					o.deleted = string(cur)
					err = txn.Delete(tbl, key)
				case errors.Is(err, engine.ErrNotFound):
					o.inserted = fmt.Sprintf("w%d.%d", id, i)
					err = txn.Insert(tbl, key, []byte(o.inserted))
				}
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Abort()
				}
				switch {
				case err == nil:
					mu.Lock()
					committed = append(committed, o)
					mu.Unlock()
				case !engine.IsRetryable(err) && !errors.Is(err, engine.ErrDuplicate) && !errors.Is(err, engine.ErrNotFound):
					t.Errorf("worker %d op %d on k%d: %v", id, i, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	gcDone.Wait()
	db.RunGC()

	inserted, deleted := map[string]int{}, map[string]int{}
	for _, o := range committed {
		if o.inserted != "" {
			inserted[o.inserted] = o.key
		} else {
			if deleted[o.deleted]++; deleted[o.deleted] > 1 {
				t.Fatalf("value %q deleted twice", o.deleted)
			}
			if k, ok := inserted[o.deleted]; ok && k != o.key {
				t.Fatalf("value %q inserted under k%d, deleted under k%d", o.deleted, k, o.key)
			}
		}
	}
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	live := 0
	for k := 0; k < keys; k++ {
		var survivors []string
		for v, vk := range inserted {
			if vk == k && deleted[v] == 0 {
				survivors = append(survivors, v)
			}
		}
		sort.Strings(survivors)
		v, ok := get(txn, tbl, fmt.Sprintf("k%d", k))
		switch {
		case len(survivors) > 1:
			t.Fatalf("k%d: committed inserts %v were never deleted — one of them was lost", k, survivors)
		case len(survivors) == 1 && (!ok || v != survivors[0]):
			t.Fatalf("k%d: committed insert %q is not readable (got %q, %v)", k, survivors[0], v, ok)
		case len(survivors) == 0 && ok:
			t.Fatalf("k%d: reads %q, which a committed delete removed", k, v)
		}
		if ok {
			live++
		}
	}
	if tab.Len() != live || tab.unreachableChains() != 0 {
		t.Fatalf("quiesced: %d index entries for %d live rows, %d chains the index does not reach",
			tab.Len(), live, tab.unreachableChains())
	}
	if len(committed) < per || db.Stats().IndexEntriesReclaimed.Load() == 0 {
		t.Fatalf("%d commits, %d entries reclaimed: the race was not exercised",
			len(committed), db.Stats().IndexEntriesReclaimed.Load())
	}
}

// Record kind 4, the retired keyless delete, is no record at all: a commit
// block holding one fails recovery with a decode error, like any other
// unknown kind, and the blocks before it are no excuse to accept it.
func TestRecoverRefusesRetiredRecordKind(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(gcTestConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t").(*Table)
	commit := func(rec []byte) {
		t.Helper()
		res, err := db.logMgr().Reserve(len(rec), wal.BlockCommit)
		if err != nil {
			t.Fatal(err)
		}
		res.Append(rec)
		res.Commit()
	}
	if recDeleteKey != 5 {
		t.Fatalf("recDeleteKey is kind %d; kinds are never renumbered", recDeleteKey)
	}
	commit(appendInsert(nil, tbl.id, 1, []byte("a"), []byte("v1")))
	commit(appendInsert(nil, tbl.id, 2, []byte("b"), []byte("v1")))
	// Kind 4's old layout: table, OID.
	commit(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32([]byte{4}, tbl.id), 1))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb, err := Recover(gcTestConfig(st))
	if err == nil {
		rdb.Close()
		t.Fatal("recovery accepted a commit block holding the retired record kind 4")
	}
	if !strings.Contains(err.Error(), "unknown log record kind 4") {
		t.Fatalf("recovery failed with %v, want an unknown-kind decode error", err)
	}
}

// A replica that fell behind log truncation re-seeds from a newer checkpoint
// over the state it already has, skipping the log in between. Keys the
// primary deleted and reclaimed in that stretch are in neither: the image no
// longer holds them, and the delete records were never seen. They must not
// come back to life, and a key the primary re-inserted under a new OID must
// read its new value — while a snapshot opened before the re-seed keeps
// reading what it could see.
func TestReseedDropsReclaimedKeys(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(gcTestConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	for _, k := range []string{"a", "b", "c"} {
		put(t, db, tbl, k, k+"1")
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	rcfg := gcTestConfig(st.Crash()) // the replica's mirror: the log so far
	rdb, ap, _, err := OpenReplica(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	defer ap.Close()
	rtbl := rdb.OpenTable("t")

	del(t, db, tbl, "b")
	del(t, db, tbl, "c")
	db.RunGC()
	if db.Stats().IndexEntriesReclaimed.Load() != 2 {
		t.Fatal("primary did not reclaim the deleted keys")
	}
	put(t, db, tbl, "c", "c2") // a new OID: the old one is sealed
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := db.CheckpointChunk(0, 0)
	if err != nil {
		t.Fatal(err)
	}

	old := rdb.BeginReadOnly(1)
	if _, err := rdb.SeedCheckpoint(ck.Data); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if v, ok := get(old, rtbl, k); !ok || v != k+"1" {
			t.Fatalf("snapshot from before the re-seed reads %s = %q, %v; want %s1", k, v, ok, k)
		}
	}
	old.Abort()
	now := rdb.BeginReadOnly(1)
	defer now.Abort()
	for k, want := range map[string]string{"a": "a1", "b": "", "c": "c2"} {
		if v, ok := get(now, rtbl, k); v != want || ok != (want != "") {
			t.Fatalf("after the re-seed %s reads %q, %v; want %q", k, v, ok, want)
		}
	}
	rdb.RunGC()
	if n, lost := rtbl.(*Table).Len(), rtbl.(*Table).unreachableChains(); n != 2 || lost != 0 {
		t.Fatalf("replica after GC: %d index entries, %d chains the index does not reach; want 2 (a, c) and 0", n, lost)
	}
}
