package silo

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ermia/internal/wal"
)

// segmentedLog writes n Silo commit blocks, one 200-byte write each, into st
// through a wal with 4 KiB segments, so the log spans many segment files.
func segmentedLog(tb testing.TB, st wal.Storage, n int) {
	m, err := wal.Open(wal.Config{SegmentSize: 4096, BufferSize: 2048, Storage: st, SyncFlush: true}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tbl := &Table{name: "t"}
	for i := 0; i < n; i++ {
		p := encodeEntry(nil, uint64(i+1), []writeEntry{{tbl: tbl, key: []byte(fmt.Sprintf("k%04d", i)), data: make([]byte, 200)}})
		r, err := m.Reserve(len(p), wal.BlockCommit)
		if err != nil {
			tb.Fatal(err)
		}
		r.Append(p)
		r.Commit()
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestRecoverRefusesLogGap: a segment missing from the middle of the log
// fails recovery with an error naming both neighbours, rather than
// replaying the commits past the hole.
func TestRecoverRefusesLogGap(t *testing.T) {
	st := wal.NewMemStorage()
	segmentedLog(t, st, 100)
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 5 {
		t.Fatalf("%d segments (%v)", len(segs), err)
	}
	if err := st.Remove(segs[2].Name); err != nil {
		t.Fatal(err)
	}
	db, err := Recover(Config{Storage: st, EpochInterval: time.Hour})
	if err == nil {
		db.Close()
		t.Fatalf("recovered past missing segment %s", segs[2].Name)
	}
	if !strings.Contains(err.Error(), segs[1].Name) || !strings.Contains(err.Error(), segs[3].Name) {
		t.Fatalf("Recover = %v; want both neighbours named", err)
	}
}
