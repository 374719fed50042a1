// Package enginetest is a reusable conformance suite for engine.DB
// implementations. Both the ERMIA engine and the Silo baseline run it, so
// any behavioural divergence that the benchmarks rely on being equal
// (visibility of committed data, duplicate handling, scan semantics, abort
// rollback, worker isolation) is caught in one place.
//
// Isolation-level-specific behaviour (snapshot stability, write skew,
// validation timing) is deliberately NOT part of the suite — those differ
// by design and have dedicated tests next to each engine.
package enginetest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ermia/internal/engine"
)

// Factory creates a fresh engine for each subtest; cleanup runs at subtest
// end.
type Factory func(t *testing.T) engine.DB

// Run executes the conformance suite against the engine the factory builds.
func Run(t *testing.T, open Factory) {
	t.Run("CommittedDataVisible", func(t *testing.T) { testCommittedVisible(t, open(t)) })
	t.Run("AbortRollsBack", func(t *testing.T) { testAbortRollsBack(t, open(t)) })
	t.Run("DuplicateInsert", func(t *testing.T) { testDuplicateInsert(t, open(t)) })
	t.Run("UpdateDeleteMissing", func(t *testing.T) { testUpdateDeleteMissing(t, open(t)) })
	t.Run("DeleteThenReinsert", func(t *testing.T) { testDeleteThenReinsert(t, open(t)) })
	t.Run("ScanOrderAndBounds", func(t *testing.T) { testScanOrderAndBounds(t, open(t)) })
	t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, open(t)) })
	t.Run("OwnWritesVisible", func(t *testing.T) { testOwnWrites(t, open(t)) })
	t.Run("TablesAreIndependent", func(t *testing.T) { testTablesIndependent(t, open(t)) })
	t.Run("TxnUnusableAfterEnd", func(t *testing.T) { testTxnUnusableAfterEnd(t, open(t)) })
	t.Run("NoLostUpdates", func(t *testing.T) { testNoLostUpdates(t, open(t)) })
	t.Run("ConcurrentDistinctKeys", func(t *testing.T) { testConcurrentDistinctKeys(t, open(t)) })
	t.Run("OpenTable", func(t *testing.T) { testOpenTable(t, open(t)) })
	t.Run("LargeValues", func(t *testing.T) { testLargeValues(t, open(t)) })
	t.Run("EmptyAndBinaryKeys", func(t *testing.T) { testEmptyAndBinaryKeys(t, open(t)) })
	t.Run("ReadValuesStayPut", func(t *testing.T) { testReadValuesStayPut(t, open(t)) })
}

func commit(t *testing.T, txn engine.Txn) {
	t.Helper()
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func testCommittedVisible(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	commit(t, txn)

	txn = db.Begin(1)
	v, err := txn.Get(tbl, []byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("get after commit: %q %v", v, err)
	}
	txn.Abort()
}

func testAbortRollsBack(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("base"), []byte("v"))
	commit(t, txn)

	txn = db.Begin(0)
	if err := txn.Insert(tbl, []byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(tbl, []byte("base"), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(tbl, []byte("base")); err != nil {
		t.Fatal(err)
	}
	txn.Abort()

	check := db.Begin(1)
	defer check.Abort()
	if _, err := check.Get(tbl, []byte("new")); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("aborted insert visible: %v", err)
	}
	if v, err := check.Get(tbl, []byte("base")); err != nil || string(v) != "v" {
		t.Errorf("aborted update/delete leaked: %q %v", v, err)
	}
}

func testDuplicateInsert(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("k"), []byte("v"))
	commit(t, txn)

	txn = db.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("other")); !errors.Is(err, engine.ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
	txn.Abort()

	// Same-transaction duplicate.
	txn = db.Begin(0)
	if err := txn.Insert(tbl, []byte("fresh"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(tbl, []byte("fresh"), []byte("2")); !errors.Is(err, engine.ErrDuplicate) {
		t.Fatalf("self duplicate: %v", err)
	}
	txn.Abort()
}

func testUpdateDeleteMissing(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	defer txn.Abort()
	if err := txn.Update(tbl, []byte("ghost"), []byte("v")); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
	if err := txn.Delete(tbl, []byte("ghost")); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("delete missing: %v", err)
	}
	if _, err := txn.Get(tbl, []byte("ghost")); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("get missing: %v", err)
	}
}

func testDeleteThenReinsert(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	for round := 0; round < 3; round++ {
		txn := db.Begin(0)
		if err := txn.Insert(tbl, []byte("k"), []byte(fmt.Sprintf("v%d", round))); err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		commit(t, txn)

		check := db.Begin(0)
		if v, err := check.Get(tbl, []byte("k")); err != nil || string(v) != fmt.Sprintf("v%d", round) {
			t.Fatalf("round %d get: %q %v", round, v, err)
		}
		check.Abort()

		txn = db.Begin(0)
		if err := txn.Delete(tbl, []byte("k")); err != nil {
			t.Fatalf("round %d delete: %v", round, err)
		}
		commit(t, txn)
	}
}

func testScanOrderAndBounds(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	for i := 0; i < 100; i++ {
		if err := txn.Insert(tbl, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, txn)

	txn = db.Begin(0)
	defer txn.Abort()
	var keys []string
	err := txn.Scan(tbl, []byte("k010"), []byte("k020"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 || keys[0] != "k010" || keys[9] != "k019" {
		t.Fatalf("bounded scan: %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("scan out of order")
		}
	}
	// Unbounded scan covers everything.
	n := 0
	txn.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 100 {
		t.Fatalf("full scan saw %d", n)
	}
	// Empty range.
	n = 0
	txn.Scan(tbl, []byte("zz"), nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty range scan saw %d", n)
	}
}

func testScanEarlyStop(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	for i := 0; i < 50; i++ {
		txn.Insert(tbl, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	commit(t, txn)
	txn = db.Begin(0)
	defer txn.Abort()
	n := 0
	txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

func testOwnWrites(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("a"), []byte("committed"))
	commit(t, txn)

	txn = db.Begin(0)
	defer txn.Abort()
	if err := txn.Insert(tbl, []byte("b"), []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(tbl, []byte("a"), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	if v, err := txn.Get(tbl, []byte("b")); err != nil || string(v) != "mine" {
		t.Errorf("own insert: %q %v", v, err)
	}
	if v, err := txn.Get(tbl, []byte("a")); err != nil || string(v) != "updated" {
		t.Errorf("own update: %q %v", v, err)
	}
	seen := map[string]string{}
	txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
		seen[string(k)] = string(v)
		return true
	})
	if seen["a"] != "updated" || seen["b"] != "mine" {
		t.Errorf("own writes in scan: %v", seen)
	}
	if err := txn.Delete(tbl, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Get(tbl, []byte("b")); !errors.Is(err, engine.ErrNotFound) {
		t.Errorf("own delete: %v", err)
	}
}

func testTablesIndependent(t *testing.T, db engine.DB) {
	a := db.CreateTable("a")
	bb := db.CreateTable("b")
	txn := db.Begin(0)
	txn.Insert(a, []byte("k"), []byte("in-a"))
	txn.Insert(bb, []byte("k"), []byte("in-b"))
	commit(t, txn)

	txn = db.Begin(0)
	defer txn.Abort()
	va, _ := txn.Get(a, []byte("k"))
	vb, _ := txn.Get(bb, []byte("k"))
	if string(va) != "in-a" || string(vb) != "in-b" {
		t.Fatalf("cross-table leak: %q %q", va, vb)
	}
}

func testTxnUnusableAfterEnd(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("k"), []byte("v"))
	commit(t, txn)
	//ermia:allow txnlifecycle conformance test: proves the engine rejects use after commit
	if err := txn.Insert(tbl, []byte("k2"), []byte("v")); err == nil {
		t.Error("insert after commit succeeded")
	}
	//ermia:allow txnlifecycle conformance test: proves the engine rejects a double commit
	if err := txn.Commit(); err == nil {
		t.Error("double commit succeeded")
	}

	txn2 := db.Begin(0)
	txn2.Abort()
	//ermia:allow txnlifecycle conformance test: proves the engine rejects use after abort
	if _, err := txn2.Get(tbl, []byte("k")); err == nil {
		t.Error("get after abort succeeded")
	}
	txn2.Abort() // double abort must be a no-op, not a panic
}

func testNoLostUpdates(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("n"), []byte("0"))
	commit(t, txn)

	const workers, per = 4, 50
	var wg sync.WaitGroup
	var committed sync.Map
	total := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			n := 0
			for i := 0; i < per; i++ {
				for {
					txn := db.Begin(id)
					v, err := txn.Get(tbl, []byte("n"))
					if err != nil {
						txn.Abort()
						continue
					}
					var cur int
					fmt.Sscanf(string(v), "%d", &cur)
					if err := txn.Update(tbl, []byte("n"), []byte(fmt.Sprintf("%d", cur+1))); err != nil {
						txn.Abort()
						if engine.IsRetryable(err) {
							continue
						}
						t.Error(err)
						return
					}
					if err := txn.Commit(); err == nil {
						n++
						break
					} else if !engine.IsRetryable(err) {
						t.Error(err)
						return
					}
				}
			}
			committed.Store(id, n)
		}(w)
	}
	wg.Wait()
	committed.Range(func(_, v any) bool {
		total += v.(int)
		return true
	})

	check := db.Begin(0)
	defer check.Abort()
	v, _ := check.Get(tbl, []byte("n"))
	var n int
	fmt.Sscanf(string(v), "%d", &n)
	if n != total {
		t.Fatalf("counter=%d committed=%d: lost updates", n, total)
	}
}

func testConcurrentDistinctKeys(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	const workers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := db.Begin(id)
				if err := txn.Insert(tbl, []byte(fmt.Sprintf("w%d-%03d", id, i)), []byte("v")); err != nil {
					t.Error(err)
					txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	txn := db.Begin(0)
	defer txn.Abort()
	n := 0
	txn.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true })
	if n != workers*per {
		t.Fatalf("found %d of %d disjoint inserts", n, workers*per)
	}
}

func testOpenTable(t *testing.T, db engine.DB) {
	created := db.CreateTable("exists")
	if got := db.OpenTable("exists"); got != created {
		t.Error("OpenTable returned a different handle")
	}
	if got := db.OpenTable("missing"); got != nil {
		t.Error("OpenTable invented a table")
	}
	if again := db.CreateTable("exists"); again != created {
		t.Error("CreateTable of existing table returned a new handle")
	}
}

func testLargeValues(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = byte(i * 31)
	}
	txn := db.Begin(0)
	if err := txn.Insert(tbl, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	commit(t, txn)
	txn = db.Begin(0)
	defer txn.Abort()
	v, err := txn.Get(tbl, []byte("big"))
	if err != nil || len(v) != len(big) {
		t.Fatalf("large value: len=%d err=%v", len(v), err)
	}
	for i := range big {
		if v[i] != big[i] {
			t.Fatalf("large value corrupted at %d", i)
		}
	}
}

// testReadValuesStayPut holds the values a Get and a Scan returned while the
// same keys are overwritten twice with values of the same length: the engine
// must never write into a payload it has handed out (codec's decoders alias
// it). An engine with an on-demand collector runs a round before the check,
// so the held values belong to pruned versions.
func testReadValuesStayPut(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	keys := []string{"a", "b", "c"}
	txn := db.Begin(0)
	for _, k := range keys {
		if err := txn.Insert(tbl, []byte(k), []byte("value-0")); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, txn)

	txn = db.Begin(1)
	got, err := txn.Get(tbl, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	held := [][]byte{got}
	if err := txn.Scan(tbl, nil, nil, func(_, v []byte) bool {
		held = append(held, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	commit(t, txn)
	if len(held) != 1+len(keys) {
		t.Fatalf("held %d values, want %d", len(held), 1+len(keys))
	}

	for round := 1; round <= 2; round++ {
		txn = db.Begin(0)
		for _, k := range keys {
			if err := txn.Update(tbl, []byte(k), []byte(fmt.Sprintf("value-%d", round))); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, txn)
	}
	if gc, ok := db.(interface{ RunGC() int }); ok {
		gc.RunGC()
	}
	for i, v := range held {
		if string(v) != "value-0" {
			t.Errorf("held value %d changed to %q after later commits", i, v)
		}
	}
}

func testEmptyAndBinaryKeys(t *testing.T, db engine.DB) {
	tbl := db.CreateTable("t")
	keys := [][]byte{
		{0},
		{0, 0, 1},
		{0xFF, 0xFF},
		[]byte("mixed\x00binary\xff"),
	}
	txn := db.Begin(0)
	for i, k := range keys {
		if err := txn.Insert(tbl, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("insert binary key %x: %v", k, err)
		}
	}
	commit(t, txn)
	txn = db.Begin(0)
	defer txn.Abort()
	for i, k := range keys {
		v, err := txn.Get(tbl, k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get binary key %x: %q %v", k, v, err)
		}
	}
}
