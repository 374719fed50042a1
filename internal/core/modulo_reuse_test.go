package core

import (
	"fmt"
	"strings"
	"testing"

	"ermia/internal/wal"
)

// TestRecoverySurvivesModuloReuse pins a data-loss regression: the log's 16
// modulo segment numbers are reused as the log grows, and rotation never
// deletes the files older generations leave behind (only truncation does).
// Recovery used to keep just the newest generation per number, so an
// untruncated log that outgrew 16 segments silently lost its oldest
// segments' transactions — including the create-table records, making every
// later record unreplayable. Every generation must be scanned.
func TestRecoverySurvivesModuloReuse(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(s wal.Storage) Config {
		return Config{WAL: wal.Config{SegmentSize: 16 << 10, BufferSize: 8 << 10, Storage: s}}
	}
	db, err := Open(cfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	value := []byte(strings.Repeat("v", 100))
	const rows = 4000 // ~0.7MB of log: well past 16 segments of 16KiB
	for i := 0; i < rows; {
		txn := db.BeginTxn(0)
		for j := 0; j < 8 && i < rows; j, i = j+1, i+1 {
			if err := txn.Insert(tbl, []byte(fmt.Sprintf("r%06d", i)), value); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	st2, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	pass1, err := wal.Recover(st2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nums := map[int]int{}
	for _, sm := range pass1.Segments {
		nums[sm.Num]++
	}
	reused := 0
	for _, n := range nums {
		if n > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("workload produced no modulo reuse (%d segments); the regression is not exercised",
			len(pass1.Segments))
	}

	st3, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Recover(cfg(st3))
	if err != nil {
		t.Fatalf("recovery over %d segments (%d reused numbers): %v", len(pass1.Segments), reused, err)
	}
	defer db2.Close()
	rtbl := db2.OpenTable("t")
	if rtbl == nil {
		t.Fatal("table lost in recovery")
	}
	txn := db2.BeginTxn(0)
	defer txn.Abort()
	count := 0
	if err := txn.Scan(rtbl, nil, nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != rows {
		t.Fatalf("recovered %d rows, want %d (oldest generations dropped?)", count, rows)
	}
}
