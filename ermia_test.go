package ermia

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ermia/internal/wal"
)

func TestOpenAndBasicUse(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(0)
	v, err := txn.Get(tbl, []byte("k"))
	txn.Abort()
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
}

func TestOpenSerializable(t *testing.T) {
	db, err := Open(Options{Serializable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Serializable() {
		t.Fatal("SSN not enabled")
	}
}

func TestRecoverSiloViaFacade(t *testing.T) {
	st := NewMemStorage()
	db, err := OpenSilo(SiloOptions{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := RecoverSilo(SiloOptions{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.Begin(0)
	defer txn.Abort()
	if v, err := txn.Get(db2.OpenTable("t"), []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("silo facade recovery: %q %v", v, err)
	}
}

func TestOpenSiloBaseline(t *testing.T) {
	db, err := OpenSilo(SiloOptions{Snapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	ro := db.BeginReadOnly(0)
	defer ro.Abort()
}

func TestRecoverRoundTripViaFacade(t *testing.T) {
	st := wal.NewMemStorage()
	db, err := Open(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("persist"), []byte("me"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Recover(Options{Storage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.OpenTable("t")
	txn := db2.Begin(0)
	defer txn.Abort()
	if v, err := txn.Get(tbl2, []byte("persist")); err != nil || string(v) != "me" {
		t.Fatalf("recovered: %q %v", v, err)
	}
}

func TestRecoverFromDirectory(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("on-disk"), []byte("yes"))
	}); err != nil {
		t.Fatal(err)
	}
	db.WaitDurable()
	db.Close()

	db2, err := Recover(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.Begin(0)
	defer txn.Abort()
	if v, err := txn.Get(db2.OpenTable("t"), []byte("on-disk")); err != nil || string(v) != "yes" {
		t.Fatalf("disk recovery: %q %v", v, err)
	}
}

func TestWithRetryResolvesConflicts(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	if err := WithRetry(db, 0, func(txn Txn) error {
		return txn.Insert(tbl, []byte("n"), []byte("0"))
	}); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := WithRetry(db, id, func(txn Txn) error {
					v, err := txn.Get(tbl, []byte("n"))
					if err != nil {
						return err
					}
					var n int
					fmt.Sscanf(string(v), "%d", &n)
					return txn.Update(tbl, []byte("n"), []byte(fmt.Sprintf("%d", n+1)))
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	txn := db.Begin(0)
	defer txn.Abort()
	v, _ := txn.Get(tbl, []byte("n"))
	var n int
	fmt.Sscanf(string(v), "%d", &n)
	if n != workers*per {
		t.Fatalf("counter = %d, want %d", n, workers*per)
	}
}

func TestWithRetryPropagatesLogicErrors(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	err = WithRetry(db, 0, func(txn Txn) error {
		_, err := txn.Get(tbl, []byte("missing"))
		return err
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}
