package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ermia/internal/engine"
	"ermia/internal/histcheck"
	"ermia/internal/silo"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// runRandomHistory drives a random read-modify-write workload against an
// engine and records the committed footprints. Record values hold a per-key
// version counter, so the checker can reconstruct WR/WW/RW dependencies.
func runRandomHistory(t *testing.T, db engine.DB, workers, txnsPerWorker, keys int) *histcheck.History {
	t.Helper()
	tbl := db.CreateTable("h")
	h := histcheck.New()

	// Seed every key at version 1 in one recorded transaction.
	seed := db.Begin(0)
	var seedOps []histcheck.Op
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%03d", k)
		if err := seed.Insert(tbl, []byte(key), []byte("1")); err != nil {
			t.Fatal(err)
		}
		seedOps = append(seedOps, histcheck.Op{Key: key, Version: 1, Write: true})
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	h.Record(seedOps)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(uint64(id)+1, 42)
			for i := 0; i < txnsPerWorker; i++ {
				txn := db.Begin(id)
				nKeys := 2 + rng.Intn(3)
				ops := make([]histcheck.Op, 0, nKeys*2)
				ok := true
				seen := map[int]bool{}
				for j := 0; j < nKeys && ok; j++ {
					k := rng.Intn(keys)
					if seen[k] {
						continue
					}
					seen[k] = true
					key := fmt.Sprintf("k%03d", k)
					val, err := txn.Get(tbl, []byte(key))
					if err != nil {
						ok = false
						break
					}
					ver, _ := strconv.ParseUint(string(val), 10, 64)
					ops = append(ops, histcheck.Op{Key: key, Version: ver})
					if rng.Bool(0.5) {
						next := strconv.FormatUint(ver+1, 10)
						if err := txn.Update(tbl, []byte(key), []byte(next)); err != nil {
							ok = false
							break
						}
						ops = append(ops, histcheck.Op{Key: key, Version: ver + 1, Write: true})
					}
				}
				if !ok {
					txn.Abort()
					continue
				}
				if err := txn.Commit(); err == nil {
					h.Record(ops)
				}
			}
		}(w)
	}
	wg.Wait()
	return h
}

func TestSSNRandomHistorySerializable(t *testing.T) {
	db := testDB(t, true)
	h := runRandomHistory(t, db, 8, 400, 12)
	if h.Len() < 100 {
		t.Fatalf("only %d commits; workload too contended to be meaningful", h.Len())
	}
	if c := h.FindCycle(); c != nil {
		t.Fatalf("ERMIA-SSN produced a dependency cycle: %s", histcheck.Describe(c))
	}
	t.Logf("ERMIA-SSN: %d committed txns, acyclic", h.Len())
}

func TestSiloRandomHistorySerializable(t *testing.T) {
	db, err := silo.Open(silo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := runRandomHistory(t, db, 8, 400, 12)
	if h.Len() < 100 {
		t.Fatalf("only %d commits", h.Len())
	}
	if c := h.FindCycle(); c != nil {
		t.Fatalf("Silo-OCC produced a dependency cycle: %s", histcheck.Describe(c))
	}
	t.Logf("Silo-OCC: %d committed txns, acyclic", h.Len())
}

// Plain SI permits write skew; the checker should (usually) catch a cycle
// when we aim the workload at it. This documents the anomaly rather than
// asserting it, since the interleaving is scheduler-dependent.
func TestSIRandomHistoryMayCycle(t *testing.T) {
	db := testDB(t, false)
	tbl := db.CreateTable("h")
	h := histcheck.New()

	seed := db.Begin(0)
	seed.Insert(tbl, []byte("a"), []byte("1"))
	seed.Insert(tbl, []byte("b"), []byte("1"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	h.Record([]histcheck.Op{{Key: "a", Version: 1, Write: true}, {Key: "b", Version: 1, Write: true}})

	// Orchestrated write skew (the guaranteed interleaving).
	t1 := db.Begin(0)
	t2 := db.Begin(1)
	ra1, _ := t1.Get(tbl, []byte("a"))
	rb1, _ := t1.Get(tbl, []byte("b"))
	ra2, _ := t2.Get(tbl, []byte("a"))
	rb2, _ := t2.Get(tbl, []byte("b"))
	va1, _ := strconv.ParseUint(string(ra1), 10, 64)
	vb1, _ := strconv.ParseUint(string(rb1), 10, 64)
	va2, _ := strconv.ParseUint(string(ra2), 10, 64)
	vb2, _ := strconv.ParseUint(string(rb2), 10, 64)
	if err := t1.Update(tbl, []byte("a"), []byte(strconv.FormatUint(va1+1, 10))); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update(tbl, []byte("b"), []byte(strconv.FormatUint(vb2+1, 10))); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	h.Record([]histcheck.Op{
		{Key: "a", Version: va1}, {Key: "b", Version: vb1},
		{Key: "a", Version: va1 + 1, Write: true},
	})
	h.Record([]histcheck.Op{
		{Key: "a", Version: va2}, {Key: "b", Version: vb2},
		{Key: "b", Version: vb2 + 1, Write: true},
	})

	c := h.FindCycle()
	if c == nil {
		t.Fatal("orchestrated write skew under plain SI should produce a cycle")
	}
	t.Logf("plain SI write skew cycle (expected): %s", histcheck.Describe(c))
}

// Heavier SSN soak with scans mixed in, run against the serializable engine
// with tiny log segments so segment rotation happens mid-workload.
func TestSSNSoakWithRotationAndGC(t *testing.T) {
	db, err := Open(Config{
		WAL:          wal.Config{SegmentSize: 16 << 10, BufferSize: 8 << 10},
		Serializable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	h := runRandomHistory(t, db, 6, 300, 8)
	db.RunGC()
	if c := h.FindCycle(); c != nil {
		t.Fatalf("cycle under rotation+GC: %s", histcheck.Describe(c))
	}
	t.Logf("soak: %d commits, %d serial aborts, %d ww aborts, %d pruned",
		h.Len(), db.Stats().SerialAborts.Load(), db.Stats().WWAborts.Load(),
		db.Stats().VersionsPruned.Load())
}

// absentVersion is the logical version a delete writes and a read of an
// absent key observes. A key is deleted at most once per history (only
// below absentVersion), so the number is unambiguous; the re-insert writes
// absentVersion+1 and updates count on from there.
const absentVersion = 1 << 32

// TestSSNHistoryWithReclamation is the random-history property with the
// record lifecycle in it: keys are deleted, the collector takes the
// tombstones and the index entries away, the keys are re-inserted under new
// OIDs and updated again. The dependency graph over the committed
// transactions must stay acyclic.
//
// Every transaction touches one to four keys, and a key it finds absent is an
// observation like any other: recorded, and possibly acted on (a re-insert)
// next to reads and updates of other keys. That is what makes the history
// bite: an absent read has no version of the key to carry SSN's stamps once
// the tombstone is reclaimed, so the cycle through it must be broken by the
// leaf stamp (reader first) or the inserter's absent version (inserter first)
// — see TestAbsentReadsAreOrdered for the cases one at a time.
//
// The lifecycle does not hang on the collector's timing. The workload comes
// in two halves with a quiesced collector round between them. The first half
// deletes and re-inserts nothing, so that round reclaims every key deleted so
// far; the second half re-inserts them under fresh OIDs while it deletes, and
// re-inserts, more — over the tombstone or over the seal, whichever the
// collector (a goroutine running flat out, and every worker after a delete of
// its own) left it.
func TestSSNHistoryWithReclamation(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runReclaimHistory(t, seed) })
	}
}

func runReclaimHistory(t *testing.T, seed uint64) {
	db := testDB(t, true)
	tbl := db.CreateTable("h")
	h := histcheck.New()
	const keys, workers, per = 24, 6, 300

	seedTxn := db.Begin(0)
	var seedOps []histcheck.Op
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%02d", k)
		if err := seedTxn.Insert(tbl, []byte(key), []byte("1")); err != nil {
			t.Fatal(err)
		}
		seedOps = append(seedOps, histcheck.Op{Key: key, Version: 1, Write: true})
	}
	mustCommit(t, seedTxn)
	h.Record(seedOps)

	var stop atomic.Bool
	var gcDone sync.WaitGroup
	gcDone.Add(1)
	go func() {
		defer gcDone.Done()
		for !stop.Load() {
			db.RunGC()
		}
	}()

	var deletes, reinserts atomic.Int64
	worker := func(id int, rng *xrand.Rand, reinsert bool) {
		for i := 0; i < per; i++ {
			txn := db.Begin(id + 1)
			var ops []histcheck.Op
			var err error
			deleted, reinserted := 0, 0
			seen := map[int]bool{}
			for j, n := 0, 1+rng.Intn(4); j < n && err == nil; j++ {
				k := rng.Intn(keys)
				if seen[k] {
					continue
				}
				seen[k] = true
				if rng.Bool(0.5) {
					runtime.Gosched() // transactions are short: make them overlap
				}
				key := fmt.Sprintf("k%02d", k)
				ver := uint64(absentVersion)
				val, gerr := txn.Get(tbl, []byte(key))
				if gerr == nil {
					ver, err = strconv.ParseUint(string(val), 10, 64)
				} else if !errors.Is(gerr, engine.ErrNotFound) {
					err = gerr
				}
				if err != nil {
					break
				}
				ops = append(ops, histcheck.Op{Key: key, Version: ver})
				next := ver + 1
				switch p := rng.Float64(); {
				case ver == absentVersion && reinsert && p < 0.3:
					err = txn.Insert(tbl, []byte(key), []byte(strconv.FormatUint(next, 10)))
					reinserted++
				case ver == absentVersion:
					continue // an absent read among the others
				case ver < absentVersion && p < 0.005:
					next = absentVersion
					err = txn.Delete(tbl, []byte(key))
					deleted++
				case p < 0.5:
					err = txn.Update(tbl, []byte(key), []byte(strconv.FormatUint(next, 10)))
				default:
					continue
				}
				ops = append(ops, histcheck.Op{Key: key, Version: next, Write: true})
			}
			if err != nil {
				txn.Abort()
				continue
			}
			if txn.Commit() == nil {
				h.Record(ops)
				reinserts.Add(int64(reinserted))
				if deletes.Add(int64(deleted)); deleted > 0 {
					db.RunGC()
				}
			}
		}
	}
	for half := uint64(0); half < 2; half++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				worker(id, xrand.New2(seed, 2*uint64(id)+half+1), half == 1)
			}(w)
		}
		wg.Wait()
		if half == 0 {
			// Nothing is open: whatever the first half deleted leaves the
			// index now.
			db.RunGC()
		}
	}
	stop.Store(true)
	gcDone.Wait()

	if c := h.FindCycle(); c != nil {
		msg := "dependency cycle with reclamation interleaved: " + histcheck.Describe(c)
		for _, e := range c {
			msg += fmt.Sprintf("\n  T%d: %+v", e.From, h.Ops(e.From))
		}
		t.Fatal(msg)
	}
	reclaimed := db.Stats().IndexEntriesReclaimed.Load()
	if h.Len() < 200 || deletes.Load() == 0 || reclaimed == 0 || reinserts.Load() == 0 {
		t.Fatalf("%d commits, %d deletes, %d entries reclaimed, %d re-inserts: the lifecycle was not exercised",
			h.Len(), deletes.Load(), reclaimed, reinserts.Load())
	}
	t.Logf("%d commits, %d deletes, %d index entries reclaimed, %d re-inserts, %d phantom and %d serialization aborts, acyclic",
		h.Len(), deletes.Load(), reclaimed, reinserts.Load(),
		db.Stats().PhantomAborts.Load(), db.Stats().SerialAborts.Load())
}
