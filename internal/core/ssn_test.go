package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ermia/internal/engine"
)

// These tests exercise the Serial Safety Net commit protocol (§3.6.2,
// Algorithm 1) through crafted interleavings.

// A committed reader must raise the overwriter's η: T1 reads x and commits;
// T2 (which started before T1 committed and overwrote x) must see
// η(T2) ≥ cstamp(T1) through x's pstamp. Here the dependency is benign
// (no cycle), so both commit — SSN must not over-abort a plain
// reader-then-writer pair.
func TestSSNReaderThenOverwriterCommits(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "x", "0")

	t1 := db.Begin(0)
	if _, err := t1.Get(tbl, []byte("x")); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin(1)
	if err := t2.Update(tbl, []byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("overwriter commit: %v", err)
	}
}

// A reader whose read a writer overwrote and committed still commits when no
// cycle closes: it serializes before the writer. Writer-wins validation
// (Silo's) aborts the same reader; SSN treats the two fairly.
func TestSSNOverwrittenReaderCommits(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "x", "base")
	put(t, db, tbl, "y", "base")

	reader := db.Begin(0)
	if _, err := reader.Get(tbl, []byte("x")); err != nil {
		t.Fatal(err)
	}
	writer := db.Begin(1)
	if err := writer.Update(tbl, []byte("x"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, writer)
	if err := reader.Update(tbl, []byte("y"), []byte("touch")); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("SSN aborted a cycle-free reader: %v", err)
	}
}

// A read-only transaction can close a dependency cycle; SSN must abort it.
// History: T2 writes y then commits between T_ro's reads such that
// T_ro -rw-> T2 (T_ro read old y) and T2 -wr-> ... -> T_ro would require
// T_ro to serialize both before and after T2.
func TestSSNReadOnlyParticipatesInCycle(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "x", "0")
	put(t, db, tbl, "y", "0")

	// T1: reads y (old), will write x.
	t1 := db.Begin(0)
	if _, err := t1.Get(tbl, []byte("y")); err != nil {
		t.Fatal(err)
	}

	// T2: writes y, commits. Now T1 -rw-> T2.
	t2 := db.Begin(1)
	if err := t2.Update(tbl, []byte("y"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// T3 (read-only): reads y (new, after T2) and x (old, before T1's
	// write). If T1 then commits its x write, the order must be
	// T1 -> T2 -> T3 -> T1: a cycle through the read-only T3.
	t3 := db.BeginReadOnly(2)
	if v, err := t3.Get(tbl, []byte("y")); err != nil || string(v) != "2" {
		t.Fatalf("t3 read y: %q %v", v, err)
	}
	if _, err := t3.Get(tbl, []byte("x")); err != nil {
		t.Fatal(err)
	}

	err1 := t1.Update(tbl, []byte("x"), []byte("1"))
	if err1 == nil {
		err1 = t1.Commit()
	} else {
		t1.Abort()
	}
	err3 := t3.Commit()
	if err3 != nil {
		t3.Abort()
	}
	// At least one participant of the would-be cycle must have aborted.
	if err1 == nil && err3 == nil {
		// Verify there is really a cycle possibility: T1 committed a write
		// to x that T3 did not see, and T3 saw T2's y which T1 did not.
		t.Fatal("SSN committed all participants of an rw-cycle through a read-only txn")
	}
}

// Forward-processing early abort: a transaction whose exclusion window
// already closed must be killed at the offending read, not at commit —
// the paper's "early detection of doomed transactions".
//
// Construction: the victim acquires a predecessor with a late commit stamp
// (a reader R of record c, which the victim then overwrites: η ≥ cstamp(R))
// and only afterwards reads a version whose overwriter U committed before R
// (π ≤ π(U) ≤ cstamp(U) < cstamp(R)). The exclusion window closes at that
// read.
func TestSSNEarlyAbortDuringForwardProcessing(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "a", "0")
	put(t, db, tbl, "c", "0")

	victim := db.Begin(0) // snapshot predates everything below

	// U overwrites a and commits (cstamp c_U).
	u := db.Begin(1)
	if err := u.Update(tbl, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, u)

	// R reads c and commits after U (cstamp c_R > c_U), publishing η on c.
	r := db.Begin(2)
	if _, err := r.Get(tbl, []byte("c")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, r)

	// Victim overwrites c: η(victim) ≥ c_R.
	err := victim.Update(tbl, []byte("c"), []byte("2"))
	if err == nil {
		// Victim reads a: its snapshot yields the old version, overwritten
		// by U with π(U) ≤ c_U < c_R — the exclusion window closes NOW.
		_, err = victim.Get(tbl, []byte("a"))
	}
	if err == nil {
		t.Fatal("doomed transaction not aborted during forward processing")
	}
	victim.Abort()
	if !errors.Is(err, engine.ErrSerialization) {
		t.Fatalf("expected serialization failure, got %v", err)
	}
}

// Concurrent SSN commits on overlapping footprints must never produce a
// state that violates the monotonicity of committed values (each key's
// version counter only grows by 1 per commit).
func TestSSNConcurrentCommitIntegrity(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	const keys = 4
	for k := 0; k < keys; k++ {
		put(t, db, tbl, fmt.Sprintf("k%d", k), "0")
	}
	const workers, per = 6, 150
	var wg sync.WaitGroup
	var commits [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := db.Begin(id)
				src := fmt.Sprintf("k%d", (id+i)%keys)
				dst := fmt.Sprintf("k%d", (id+i+1)%keys)
				v, err := txn.Get(tbl, []byte(src))
				if err != nil {
					txn.Abort()
					continue
				}
				var n int
				fmt.Sscanf(string(v), "%d", &n)
				if err := txn.Update(tbl, []byte(dst), []byte(fmt.Sprintf("%d", n+1))); err != nil {
					txn.Abort()
					continue
				}
				if txn.Commit() == nil {
					commits[id]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range commits {
		total += c
	}
	if total == 0 {
		t.Fatal("workload fully starved")
	}
	stats := db.Stats()
	t.Logf("commits=%d ssn-aborts=%d ww-aborts=%d",
		total, stats.SerialAborts.Load(), stats.WWAborts.Load())
}

// SSN stats must only move under the serializable configuration.
func TestSSNDisabledUnderSI(t *testing.T) {
	db := testDB(t, false)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "a", "0")
	put(t, db, tbl, "b", "0")

	// The write-skew pair commits under SI with zero serialization aborts.
	t1 := db.Begin(0)
	t2 := db.Begin(1)
	t1.Get(tbl, []byte("a"))
	t1.Get(tbl, []byte("b"))
	t2.Get(tbl, []byte("a"))
	t2.Get(tbl, []byte("b"))
	t1.Update(tbl, []byte("a"), []byte("1"))
	t2.Update(tbl, []byte("b"), []byte("1"))
	mustCommit(t, t1)
	mustCommit(t, t2)
	if got := db.Stats().SerialAborts.Load(); got != 0 {
		t.Fatalf("SI config produced %d serialization aborts", got)
	}
}
