package core

import (
	"fmt"
	"strings"
	"testing"

	"ermia/internal/wal"
)

// TestRestartAfterCutAtSegmentRoll: a crash near a segment roll leaves a
// durable prefix of segment 0 and segment 1's file — created when the roll
// was reserved — present and empty. At every commit boundary of segment 0,
// the next incarnation's acked commit must survive the following recovery.
func TestRestartAfterCutAtSegmentRoll(t *testing.T) {
	cfg := func(st wal.Storage) Config {
		return Config{WAL: wal.Config{SegmentSize: 8 << 10, Storage: st}}
	}
	st := wal.NewMemStorage()
	db, err := Open(cfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	val := strings.Repeat("v", 60) // a 128-byte commit block
	for i := 0; i < 100; i++ {
		put(t, db, tbl, fmt.Sprintf("k%03d", i), val)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 2 {
		t.Fatalf("%d segments (%v); want the log to roll", len(segs), err)
	}
	var cuts []uint64
	if _, err := wal.Recover(st, 0, func(b wal.Block) error {
		if end := b.LSN.Offset() + b.Size; b.Type == wal.BlockCommit && end <= segs[0].End {
			cuts = append(cuts, end)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	src, err := st.Open(segs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, cut := range cuts {
		img := wal.NewMemStorage()
		prefix := make([]byte, cut-segs[0].Start)
		src.ReadAt(prefix, 0)
		f, _ := img.Create(segs[0].Name)
		f.WriteAt(prefix, 0)
		f.Sync()
		img.Create(segs[1].Name)

		db, err := Recover(cfg(img))
		if err != nil {
			t.Fatalf("cut %#x: recover: %v", cut, err)
		}
		put(t, db, db.OpenTable("t"), "k999", val)
		if err := db.WaitDurable(); err != nil {
			t.Fatal(err)
		}
		db.Close()

		db, err = Recover(cfg(img.Crash()))
		if err != nil {
			t.Fatalf("cut %#x: second recovery: %v", cut, err)
		}
		txn := db.BeginTxn(0)
		if v, ok := get(txn, db.OpenTable("t"), "k999"); !ok || v != val {
			lost++
			t.Errorf("cut %#x: the acked k999 is gone after the second recovery", cut)
		}
		txn.Abort()
		db.Close()
	}
	t.Logf("%d cut points in segment 0, %d lost the acked commit", len(cuts), lost)
}
