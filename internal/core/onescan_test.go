package core

import (
	"fmt"
	"strings"
	"testing"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// scanConfig logs to st in 8 KiB segments.
func scanConfig(st wal.Storage) Config {
	return Config{WAL: wal.Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}}
}

// fileSize returns the size of the file name in st.
func fileSize(t *testing.T, st wal.Storage, name string) uint64 {
	t.Helper()
	f, err := st.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	return uint64(size)
}

// logBytesFrom sums the segment bytes of st at or above offset from.
func logBytesFrom(t *testing.T, st wal.Storage, from uint64) uint64 {
	t.Helper()
	segs, err := wal.Segments(st)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, sm := range segs {
		if end := sm.Start + fileSize(t, st, sm.Name); end > from {
			total += end - max(from, sm.Start)
		}
	}
	return total
}

// TestRecoverReadsTheLogOnce: recovery reads each durable log byte about
// once, and with a checkpoint only the log above its cut (and the blob).
func TestRecoverReadsTheLogOnce(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			st := wal.NewMemStorage()
			db, err := Open(scanConfig(st))
			if err != nil {
				t.Fatal(err)
			}
			tbl := db.CreateTable("t")
			val := strings.Repeat("v", 200)
			for i := 0; i < 300; i++ {
				put(t, db, tbl, fmt.Sprintf("k%04d", i), val)
			}
			if ckpt {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for i := 300; i < 400; i++ {
					put(t, db, tbl, fmt.Sprintf("k%04d", i), val)
				}
			}
			if err := db.WaitDurable(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			rec := faultfs.NewRecorder(st.Crash())
			db2, err := Recover(scanConfig(rec))
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if n := db2.OpenTable("t").(*Table).idx.Len(); n != map[bool]int{false: 300, true: 400}[ckpt] {
				t.Fatalf("recovered %d rows", n)
			}
			var budget uint64
			if ci, ok := db2.LastCheckpoint(); ckpt != ok {
				t.Fatalf("checkpoint adopted: %v", ok)
			} else if ok {
				budget = logBytesFrom(t, rec, ci.Begin)*11/10 + fileSize(t, rec, ci.Name)
			} else {
				budget = logBytesFrom(t, rec, 0) * 11 / 10
			}
			read := uint64(rec.ReadBytes())
			if read > budget {
				t.Fatalf("recovery read %d bytes; budget %d (log %d bytes)", read, budget, logBytesFrom(t, rec, 0))
			}
			t.Logf("recovery read %d bytes of a %d-byte log; budget %d", read, logBytesFrom(t, rec, 0), budget)
		})
	}
}

// gapLog commits 300 rows over about eight segments, the last 100 after a
// checkpoint, and returns the crashed storage and its segments.
func gapLog(t *testing.T) (*wal.MemStorage, []wal.SegmentMeta, CheckpointInfo) {
	st := wal.NewMemStorage()
	db, err := Open(scanConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	val := strings.Repeat("v", 200)
	for i := 0; i < 300; i++ {
		if i == 200 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		put(t, db, tbl, fmt.Sprintf("k%04d", i), val)
	}
	ci, _ := db.LastCheckpoint()
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	crashed := st.Crash()
	segs, err := wal.Segments(crashed)
	if err != nil || len(segs) < 8 {
		t.Fatalf("%d segments (%v)", len(segs), err)
	}
	return crashed, segs, ci
}

// TestRecoverRefusesLogGap: a segment missing above the checkpoint cut fails
// recovery with an error naming both neighbours; one missing below the cut
// (a truncation half-applied at a crash) does not matter.
func TestRecoverRefusesLogGap(t *testing.T) {
	st, segs, ci := gapLog(t)
	last := len(segs) - 2
	if segs[last].Start <= ci.Begin {
		t.Fatalf("cut %#x is in the last segments", ci.Begin)
	}
	if err := st.Remove(segs[last].Name); err != nil {
		t.Fatal(err)
	}
	db, err := Recover(scanConfig(st))
	if err == nil {
		db.Close()
		t.Fatalf("recovered past missing segment %s", segs[last].Name)
	}
	if !strings.Contains(err.Error(), segs[last-1].Name) || !strings.Contains(err.Error(), segs[last+1].Name) {
		t.Fatalf("Recover = %v; want both neighbours named", err)
	}

	st, segs, ci = gapLog(t)
	if segs[2].End > ci.Begin {
		t.Fatalf("cut %#x is in the first segments", ci.Begin)
	}
	if err := st.Remove(segs[1].Name); err != nil {
		t.Fatal(err)
	}
	db, err = Recover(scanConfig(st))
	if err != nil {
		t.Fatalf("gap below the cut: %v", err)
	}
	defer db.Close()
	if n := db.OpenTable("t").(*Table).idx.Len(); n != 300 {
		t.Fatalf("recovered %d rows", n)
	}
}

// TestTruncateKeepsStraddlingChain: a per-operation writer ships its
// records before a checkpoint and commits after it. Truncation — after the
// checkpoint, after the commit, and after a recovery — keeps the segments
// its chain lives in, so every recovery finds it.
func TestTruncateKeepsStraddlingChain(t *testing.T) {
	st := wal.NewMemStorage()
	cfg := scanConfig(st)
	cfg.LogPerOperation = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	w := db.Begin(1)
	for i := 0; i < 3; i++ {
		if err := w.Insert(tbl, []byte(fmt.Sprintf("w%d", i)), []byte("straddles")); err != nil {
			t.Fatal(err)
		}
	}
	val := strings.Repeat("v", 300)
	for i := 0; i < 150; i++ {
		put(t, db, tbl, fmt.Sprintf("k%04d", i), val)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if removed, err := db.TruncateLog(); err != nil {
		t.Fatal(err)
	} else if len(removed) != 0 {
		t.Fatalf("truncated %v under an open chain", removed)
	}
	mustCommit(t, w)
	if _, err := db.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(db *DB) {
		t.Helper()
		txn := db.BeginTxn(0)
		defer txn.Abort()
		if v, err := txn.Get(db.OpenTable("t"), []byte("w2")); err != nil || string(v) != "straddles" {
			t.Fatalf("w2 = %q, %v", v, err)
		}
	}
	for range 2 {
		cfg.WAL.Storage = st.Crash()
		db, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(db)
		if _, err := db.TruncateLog(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		st = cfg.WAL.Storage.(*wal.MemStorage)
	}
}
