package core

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"ermia/internal/alloctest"
	"ermia/internal/engine"
	"ermia/internal/index"
	"ermia/internal/mvcc"
)

// loadKeys commits keys k000000..k(n-1), several per transaction.
func loadKeys(t testing.TB, db *DB, tbl engine.Table, n int) {
	t.Helper()
	for i := 0; i < n; {
		txn := db.Begin(0)
		for j := 0; j < 256 && i < n; j, i = j+1, i+1 {
			if err := txn.Insert(tbl, wkey(i), []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, txn)
	}
}

func wkey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// mixedTxn runs a small read-write transaction on worker: reads, an update
// and an insert of a key derived from n.
func mixedTxn(t testing.TB, db *DB, tbl engine.Table, worker, n int) *Txn {
	t.Helper()
	txn := db.BeginTxn(worker)
	for i := 0; i < 4; i++ {
		if _, err := txn.Get(tbl, wkey((n+i)%100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Update(tbl, wkey(n%100), []byte(fmt.Sprintf("u%d", n))); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(tbl, []byte(fmt.Sprintf("new%06d", n)), []byte("n")); err != nil {
		t.Fatal(err)
	}
	return txn
}

// A finished transaction keeps none of the arrays it borrowed: every method
// on a stale handle answers ErrAborted and cannot reach the memory the
// slot's later transactions are using.
func TestTxnUseAfterFinish(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	si := db.CreateSecondaryIndex(tbl, "t-by-sk")
	loadKeys(t, db, tbl, 100)

	const worker = 5
	stale := mixedTxn(t, db, tbl, worker, 0)
	mustCommit(t, stale)
	aborted := mixedTxn(t, db, tbl, worker, 1)
	aborted.Abort()
	for i := 2; i < 102; i++ {
		mustCommit(t, mixedTxn(t, db, tbl, worker, i))
	}

	live := mixedTxn(t, db, tbl, worker, 102)
	reads, writes, nodes := len(live.reads), len(live.writes), len(live.nodeSet)
	firstRead, firstWrite, firstNode := live.reads[0], live.writes[0], live.nodeSet[0]

	for _, h := range []*Txn{stale, aborted} {
		if h.reads != nil || h.writes != nil || h.nodeSet != nil || h.logBuf != nil {
			t.Fatal("finished transaction still holds scratch arrays")
		}
		check := func(op string, err error) {
			t.Helper()
			if !errors.Is(err, engine.ErrAborted) {
				t.Fatalf("%s on a finished transaction: %v, want ErrAborted", op, err)
			}
		}
		_, err := h.Get(tbl, wkey(1))
		check("Get", err)
		check("Scan", h.Scan(tbl, nil, nil, func(_, _ []byte) bool { return true }))
		check("Insert", h.Insert(tbl, []byte("zz"), []byte("v")))
		check("Update", h.Update(tbl, wkey(1), []byte("v")))
		check("Delete", h.Delete(tbl, wkey(1)))
		check("InsertWithSecondary", h.InsertWithSecondary(tbl, []byte("zz"), []byte("v"),
			[]SecondaryEntry{{Index: si, Key: []byte("sk")}}))
		_, err = h.GetBySecondary(si, []byte("sk"))
		check("GetBySecondary", err)
		check("ScanSecondary", h.ScanSecondary(si, nil, nil, func(_, _ []byte) bool { return true }))
		check("Commit", h.Commit())
		h.Abort() // no-op
	}

	if len(live.reads) != reads || len(live.writes) != writes || len(live.nodeSet) != nodes ||
		live.reads[0] != firstRead || live.writes[0].newV != firstWrite.newV || live.nodeSet[0] != firstNode {
		t.Fatal("stale handle disturbed the live transaction's sets")
	}
	mustCommit(t, live)
}

// Two live transactions on one worker slot break the contract, but must
// still never share arrays: the second starts from nil, and whichever
// finishes last is the one set left parked.
func TestTxnTwoLiveOnOneSlot(t *testing.T) {
	db := testDB(t, false)
	tbl := db.CreateTable("t")
	loadKeys(t, db, tbl, 100)
	const worker = 7
	mustCommit(t, mixedTxn(t, db, tbl, worker, 0)) // park a warm set

	ws := &db.workers[worker]
	if cap(ws.scratch.writes) == 0 || cap(ws.scratch.logBuf) == 0 {
		t.Fatal("a finished transaction parked nothing")
	}
	first := db.BeginTxn(worker)
	if cap(first.writes) == 0 || ws.scratch.writes != nil {
		t.Fatal("begin did not take the parked arrays")
	}
	second := db.BeginTxn(worker)
	if second.writes != nil || second.logBuf != nil {
		t.Fatal("second live transaction on the slot got arrays while the first holds the slot's")
	}
	for i := 0; i < 4; i++ {
		if err := first.Update(tbl, wkey(10+i), []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := second.Update(tbl, wkey(20+i), []byte("second")); err != nil {
			t.Fatal(err)
		}
	}
	if &first.writes[0] == &second.writes[0] {
		t.Fatal("two live transactions share a write set")
	}
	for i := 0; i < 4; i++ {
		if string(first.writes[i].newV.Data) != "first" || string(second.writes[i].newV.Data) != "second" {
			t.Fatal("write sets bled into each other")
		}
	}
	secondWrites := &second.writes[0]
	mustCommit(t, first)
	mustCommit(t, second)
	if parked := ws.scratch.writes; cap(parked) == 0 || &parked[:1][0] != secondWrites {
		t.Fatal("the last transaction to finish should be the one set parked")
	}
	if w := ws.scratch.writes[:1][0]; w.newV != nil || w.tbl != nil {
		t.Fatal("parked write set still references versions")
	}
}

// One huge transaction must not pin its footprint on the slot.
func TestTxnScratchBound(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	const rows = 50000
	loadKeys(t, db, tbl, rows)
	const worker = 3
	txn := db.BeginTxn(worker)
	n := 0
	if err := txn.Scan(tbl, nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != rows || len(txn.reads) != rows {
		t.Fatalf("scanned %d rows with a read set of %d, want %d", n, len(txn.reads), rows)
	}
	if len(txn.nodeSet) < rows/64 {
		t.Fatalf("node set has %d leaves for %d rows", len(txn.nodeSet), rows)
	}
	mustCommit(t, txn)
	s := &db.workers[worker].scratch
	for name, bytes := range map[string]uintptr{
		"reads":   uintptr(cap(s.reads)) * unsafe.Sizeof((*mvcc.Version)(nil)),
		"writes":  uintptr(cap(s.writes)) * unsafe.Sizeof(writeEntry{}),
		"nodeSet": uintptr(cap(s.nodeSet)) * unsafe.Sizeof(index.Handle[mvcc.OID]{}),
		"nodeTab": uintptr(cap(s.nodeTab)) * 4,
		"logBuf":  uintptr(cap(s.logBuf)),
	} {
		if bytes > scratchKeepBytes {
			t.Errorf("parked %s holds %d bytes, bound %d", name, bytes, scratchKeepBytes)
		}
	}
	// The slot still works, from fresh arrays.
	mustCommit(t, mixedTxn(t, db, tbl, worker, 1))
}

// A garbage list keeps the array a drain emptied, cleared, and gets it back on
// the next drain, however large one round's writes made it — worker 0's
// included, whose list used to take the appliers' empty one and regrow from
// nil every round.
func TestGarbageListKeepsItsArray(t *testing.T) {
	db := testDB(t, false)
	tbl := db.CreateTable("t")
	const rows = 4096 // 96 KB of entries, past scratchKeepBytes
	loadKeys(t, db, tbl, rows)
	overwrite := func() {
		for i := 0; i < rows; i += 256 {
			txn := db.Begin(0)
			for j := i; j < i+256; j++ {
				if err := txn.Update(tbl, wkey(j), []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, txn)
		}
	}
	g := &db.workers[0].garbage
	overwrite()
	before := cap(g.entries)
	if db.RunGC() != rows {
		t.Fatal("the round did not prune every overwrite")
	}
	if g.drained == nil || cap(g.drained) != before {
		t.Fatalf("after the drain the list keeps cap %d, want the drained array's %d", cap(g.drained), before)
	}
	if g.drained[:1][0].tbl != nil {
		t.Fatal("the kept array still references a table")
	}
	kept := &g.drained[:1][0]
	overwrite()
	db.RunGC()
	if cap(g.entries) == 0 || &g.entries[:1][0] != kept {
		t.Fatal("the next drain did not hand the kept array back")
	}
}

// The SSN read set holds each version once however often it is read.
func TestSSNReadSetDedup(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	loadKeys(t, db, tbl, 10)
	txn := db.BeginTxn(2)
	for i := 0; i < 1000; i++ {
		if _, err := txn.Get(tbl, wkey(4)); err != nil {
			t.Fatal(err)
		}
	}
	if len(txn.reads) != 1 {
		t.Fatalf("read set has %d entries after reading one key 1000 times", len(txn.reads))
	}
	v := txn.reads[0]
	mustCommit(t, txn)
	if v.HasReaders() {
		t.Fatal("finish left a reader mark behind")
	}
}

// The node set's hash table must agree with a plain scan of the node set,
// across growth, refresh and reuse.
func TestNodeSetDedup(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	loadKeys(t, db, tbl, 20000)
	for round := 0; round < 3; round++ { // later rounds reuse the parked table
		txn := db.BeginTxn(4)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 20000; i += 7 {
				if _, err := txn.Get(tbl, wkey(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Own inserts refresh tracked handles in place.
		for i := 0; i < 50; i++ {
			key := []byte(fmt.Sprintf("k%06d.%d", i*300, round))
			if err := txn.Insert(tbl, key, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[index.Handle[mvcc.OID]]bool{}
		for i, n := range txn.nodeSet {
			h := n.h
			if seen[h] {
				t.Fatalf("round %d: node set holds handle %d twice", round, i)
			}
			seen[h] = true
			if got := txn.findNode(h); got != i {
				t.Fatalf("round %d: findNode(nodeSet[%d]) = %d", round, i, got)
			}
			if !h.Valid() {
				t.Fatalf("round %d: handle %d invalid although only this transaction inserted", round, i)
			}
		}
		if len(txn.nodeSet) < 200 {
			t.Fatalf("round %d: only %d leaves tracked", round, len(txn.nodeSet))
		}
		mustCommit(t, txn)
	}
}

// TestTxnAllocBudget pins what a transaction on a warm worker allocates: only
// what outlives it.
func TestTxnAllocBudget(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	loadKeys(t, db, tbl, 2000)
	const worker = 6
	newKeys := make([][]byte, 0, 512)
	for i := 0; i < cap(newKeys); i++ {
		newKeys = append(newKeys, []byte(fmt.Sprintf("n%06d", i)))
	}
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = wkey(i)
	}
	val := []byte("value")

	n := 0
	readWrite := func() {
		txn := db.BeginTxn(worker)
		for i := 0; i < 16; i++ {
			if _, err := txn.Get(tbl, keys[(n*16+i)%len(keys)]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := txn.Update(tbl, keys[(n*2+i)%len(keys)], val); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Insert(tbl, newKeys[n], val); err != nil {
			t.Fatal(err)
		}
		n++
		mustCommit(t, txn)
	}
	readOnly := func(reads int) func() {
		return func() {
			txn := db.BeginTxn(worker)
			for i := 0; i < reads; i++ {
				if _, err := txn.Get(tbl, keys[i]); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, txn)
		}
	}
	for i := 0; i < 3; i++ { // warm the worker context
		readWrite()
		readOnly(1000)()
	}

	t.Run("ReadWrite", func(t *testing.T) {
		// The Txn; a Version per write (3); the cloned insert key; the index
		// leaf's new view (the key and value go into free slots of arrays the
		// leaf's views share). The garbage list's amortized growth and the
		// rare leaf split or slot compaction round to nothing over 100 runs.
		alloctest.Budget(t, 6, readWrite)
	})
	t.Run("ReadOnly", func(t *testing.T) {
		// The Txn, whatever the number of reads.
		alloctest.Budget(t, 1, readOnly(10))
		alloctest.Budget(t, 1, readOnly(1000))
	})
}
