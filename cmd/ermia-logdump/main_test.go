package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ermia/internal/core"
	"ermia/internal/wal"
)

// TestDumpPrintsEveryRecordKind writes each record kind the engine logs, and
// a checkpoint, into a real directory and checks that the dump prints one
// line per record, the checkpoint's gen, begin and floor, and an old log's
// checkpoint-end block as retired. The checkpoint is taken before the
// delete, so no collector round can change which records it holds.
func TestDumpPrintsEveryRecordKind(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{WAL: wal.Config{SegmentSize: 1 << 20, BufferSize: 1 << 16, Storage: st}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	si := db.CreateSecondaryIndex(tbl, "t-by-sk")
	step := func(f func(txn *core.Txn) error) {
		t.Helper()
		txn := db.BeginTxn(0)
		if err := f(txn); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	step(func(txn *core.Txn) error {
		return txn.InsertWithSecondary(tbl, []byte("a"), []byte("1"), []core.SecondaryEntry{{Index: si, Key: []byte("sk-a")}})
	})
	step(func(txn *core.Txn) error { return txn.Insert(tbl, []byte("b"), []byte("2")) })
	step(func(txn *core.Txn) error { return txn.Update(tbl, []byte("b"), []byte("3")) })
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ci, _ := db.LastCheckpoint()
	// The end block an older engine logged after publishing a blob.
	end, err := db.Log().Reserve(len(ci.Name), wal.BlockCheckpointEnd)
	if err != nil {
		t.Fatal(err)
	}
	end.Append([]byte(ci.Name))
	end.Commit()
	step(func(txn *core.Txn) error { return txn.Delete(tbl, []byte("a")) })
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	var out bytes.Buffer
	if err := run(&out, dir, true); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"create-table": 2, "create-index": 2, "insert": 2, "secondary": 1, "update": 1, "delete": 1,
		"version": 2, "bind": 1,
	}
	got := map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "    ") {
			if _, ok := want[f[0]]; ok {
				got[f[0]]++
			}
		}
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%d %q lines, want %d\n%s", got[kind], kind, n, out.String())
		}
	}
	for _, line := range []string{
		fmt.Sprintf("checkpoint gen=%d begin=%#x floor=%#x\n", ci.Gen, ci.Begin, ci.Floor),
		"ckpt-end (retired) offset=",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("dump lacks %q\n%s", line, out.String())
		}
	}
}

// TestDumpPrintsGap: a segment missing from the middle of the log ends the
// block listing with the gap, naming both neighbours, and fails the run.
func TestDumpPrintsGap(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.Config{WAL: wal.Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 150; i++ {
		txn := db.BeginTxn(0)
		if err := txn.Insert(tbl, []byte(fmt.Sprintf("k%04d", i)), make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 4 {
		t.Fatalf("%d segments (%v)", len(segs), err)
	}
	if err := st.Remove(segs[1].Name); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run(&out, dir, false)
	gap := "gap in the log between segment " + segs[0].Name + " and segment " + segs[2].Name
	if err == nil || !strings.Contains(out.String(), gap) {
		t.Fatalf("run = %v, output lacks %q:\n%s", err, gap, out.String())
	}
}
