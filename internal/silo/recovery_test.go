package silo

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"reflect"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

func recCfg(st wal.Storage) Config {
	return Config{Storage: st}
}

func TestRecoveryBasic(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("users")
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("u%03d", i), fmt.Sprintf("val%d", i)
		txn := db.Begin(0)
		if err := txn.Insert(tbl, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Updates and deletes must replay with last-writer-wins.
	txn := db.Begin(0)
	txn.Update(tbl, []byte("u010"), []byte("updated"))
	txn.Delete(tbl, []byte("u020"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want["u010"] = "updated"
	delete(want, "u020")
	db.WaitDurable()
	db.Close()

	db2, err := Recover(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.OpenTable("users")
	if tbl2 == nil {
		t.Fatal("table missing after recovery")
	}
	txn = db2.Begin(0)
	defer txn.Abort()
	got := map[string]string{}
	txn.Scan(tbl2, nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q = %q, want %q", k, got[k], v)
		}
	}
	if _, err := txn.Get(tbl2, []byte("u020")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("deleted key after recovery: %v", err)
	}
}

func TestRecoveryLastWriterWinsAcrossWorkers(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("k"), []byte("v0"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Alternate writers so commit TIDs interleave across worker slots.
	for i := 1; i <= 20; i++ {
		txn := db.Begin(i % 4)
		if err := txn.Update(tbl, []byte("k"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitDurable()
	db.Close()

	db2, err := Recover(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn = db2.Begin(0)
	defer txn.Abort()
	v, err := txn.Get(db2.OpenTable("t"), []byte("k"))
	if err != nil || string(v) != "v20" {
		t.Fatalf("recovered %q %v, want v20", v, err)
	}
}

func TestRecoveryCrashLosesOnlyTail(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 20; i++ {
		txn := db.Begin(0)
		txn.Insert(tbl, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitDurable() // first 20 durable
	for i := 20; i < 40; i++ {
		txn := db.Begin(0)
		txn.Insert(tbl, []byte(fmt.Sprintf("k%02d", i)), []byte("v"))
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	crashed := st.Crash()
	db.Close()

	db2, err := Recover(recCfg(crashed))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.Begin(0)
	defer txn.Abort()
	n := 0
	txn.Scan(db2.OpenTable("t"), nil, nil, func(k, v []byte) bool { n++; return true })
	if n < 20 || n > 40 {
		t.Fatalf("recovered %d rows, durable prefix was 20 of 40", n)
	}
}

func TestRecoveryEmptyStorage(t *testing.T) {
	db, err := Recover(recCfg(wal.NewMemStorage()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryTwice(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	txn := db.Begin(0)
	txn.Insert(tbl, []byte("gen1"), []byte("a"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	db.WaitDurable()
	db.Close()

	db2, err := Recover(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl2 := db2.OpenTable("t")
	txn = db2.Begin(0)
	txn.Insert(tbl2, []byte("gen2"), []byte("b"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	db2.WaitDurable()
	db2.Close()

	db3, err := Recover(recCfg(st))
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	txn = db3.Begin(0)
	defer txn.Abort()
	for _, k := range []string{"gen1", "gen2"} {
		if _, err := txn.Get(db3.OpenTable("t"), []byte(k)); err != nil {
			t.Fatalf("%s missing after second recovery: %v", k, err)
		}
	}
}

// unreadableStorage refuses every Open with a permission error: the log
// exists but cannot be read, which is not the same as no log at all.
type unreadableStorage struct{ wal.Storage }

func (unreadableStorage) Open(name string) (wal.File, error) {
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
}

// storageImage returns every file's current bytes.
func storageImage(t *testing.T, st wal.Storage) map[string][]byte {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	img := map[string][]byte{}
	for _, n := range names {
		f, err := st.Open(n)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, size)
		if _, err := f.ReadAt(b, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
		img[n] = b
	}
	return img
}

// populatedLog returns storage holding a durable log of inserts, an update
// and a delete.
func populatedLog(t *testing.T) *wal.MemStorage {
	t.Helper()
	st := wal.NewMemStorage()
	db, err := Open(Config{Storage: st, EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 10; i++ {
		put(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	txn := db.Begin(0)
	txn.Update(tbl, []byte("k1"), []byte("updated"))
	txn.Delete(tbl, []byte("k2"))
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	return st
}

// TestRecoverRefusesUnreadableLog: a log that exists but cannot be opened
// is an error, never an empty database — and recovery must not truncate the
// bytes it could not read.
func TestRecoverRefusesUnreadableLog(t *testing.T) {
	st := populatedLog(t)
	before := storageImage(t, st)
	db, err := Recover(Config{Storage: unreadableStorage{st}, EpochInterval: time.Hour})
	if err == nil {
		db.Close()
	}
	if !reflect.DeepEqual(storageImage(t, st), before) {
		t.Error("recovery of an unreadable log changed the stored bytes")
	}
	if !errors.Is(err, fs.ErrPermission) {
		t.Errorf("Recover of an unreadable log = %v, want the open error", err)
	}
}

// TestRecoverWritesNothing: recovery of a populated log issues no mutating
// storage operation, so two recoveries in a row leave the storage
// byte-identical.
func TestRecoverWritesNothing(t *testing.T) {
	st := populatedLog(t)
	before := storageImage(t, st)
	for i := 1; i <= 2; i++ {
		rec := faultfs.NewRecorder(st)
		db, err := Recover(Config{Storage: rec, EpochInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		txn := db.Begin(0)
		if v, err := txn.Get(db.OpenTable("t"), []byte("k1")); err != nil || string(v) != "updated" {
			t.Fatalf("recovery %d: k1 = %q, %v", i, v, err)
		}
		txn.Abort()
		db.Close()
		if ops := rec.Ops(); len(ops) != 0 {
			t.Fatalf("recovery %d issued %d mutating storage operations, first %v %s",
				i, len(ops), ops[0].Kind, ops[0].Name)
		}
		if !reflect.DeepEqual(storageImage(t, st), before) {
			t.Fatalf("recovery %d changed the stored bytes", i)
		}
	}
}
