package core

import (
	"fmt"
	"strings"
	"testing"

	"ermia/internal/wal"
)

// TestTruncateLogAfterCheckpoint: segments before the checkpoint go away,
// what survives is bounded by the data rather than the history that
// overwrote it, and the database still recovers completely.
func TestTruncateLogAfterCheckpoint(t *testing.T) {
	st := wal.NewMemStorage()
	cfg := Config{WAL: wal.Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	want := map[string]string{}
	// Three rounds over the same rows, each filling several 8KiB segments:
	// the data stays constant while the log history triples.
	var roundOne int64
	for round := 0; round < 3; round++ {
		val := fmt.Sprintf("round%d-", round) + strings.Repeat("x", 300)
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("k%04d", i)
			if round == 0 {
				put(t, db, tbl, k, val)
			} else {
				txn := db.Begin(0)
				if err := txn.Update(tbl, []byte(k), []byte(val)); err != nil {
					t.Fatalf("update %s: %v", k, err)
				}
				mustCommit(t, txn)
			}
			want[k] = val
		}
		if round == 0 {
			roundOne = durableLogBytes(t, db, st)
		}
	}
	if db.Log().Stats().SegmentOpens < 4 {
		t.Fatalf("only %d segment opens", db.Log().Stats().SegmentOpens)
	}
	history := durableLogBytes(t, db, st)
	before, _ := st.List()

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("nothing truncated despite multiple full segments")
	}
	after, _ := st.List()
	if len(after) >= len(before)+2 { // +ckpt blob, -removed segments
		t.Fatalf("file count did not shrink: %d -> %d", len(before), len(after))
	}
	tail := durableLogBytes(t, db, st)
	t.Logf("log bytes: round one %d, three rounds %d, after truncation %d", roundOne, history, tail)
	if tail >= roundOne {
		t.Fatalf("truncated log holds %d bytes, not below the %d one round of the data wrote", tail, roundOne)
	}

	// Post-checkpoint writes land in the surviving tail.
	put(t, db, tbl, "post", "truncate")
	want["post"] = "truncate"
	db.WaitDurable()
	db.Close()

	db2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	expect(t, db2, "t", want)
}

// TestTruncateWithoutCheckpointIsNoop guards against deleting a log that is
// still the only copy of the data.
func TestTruncateWithoutCheckpointIsNoop(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(Config{WAL: wal.Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	for i := 0; i < 100; i++ {
		put(t, db, tbl, fmt.Sprintf("k%03d", i), strings.Repeat("y", 300))
	}
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("truncated %v without a checkpoint", removed)
	}
}

// TestTruncateKeepsTailSegments: the segment containing the checkpoint
// marker (and everything after) survives.
func TestTruncateKeepsTail(t *testing.T) {
	st := wal.NewMemStorage()
	cfg := Config{WAL: wal.Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 80; i++ {
		put(t, db, tbl, fmt.Sprintf("k%03d", i), strings.Repeat("z", 300))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	// A second truncation finds nothing new.
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("second truncate removed %v", removed)
	}
	db.Close()

	// Recovery must still find the checkpoint's begin record.
	db2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.BeginTxn(0)
	defer txn.Abort()
	n := 0
	txn.Scan(db2.OpenTable("t"), nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 80 {
		t.Fatalf("recovered %d of 80 after truncation", n)
	}
}

// durableLogBytes waits for the log to be durable and sums the sizes of
// the segment files in st.
func durableLogBytes(t *testing.T, db *DB, st wal.Storage) int64 {
	t.Helper()
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range names {
		if !strings.HasPrefix(n, "log-") {
			continue
		}
		f, err := st.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += size
	}
	return total
}
