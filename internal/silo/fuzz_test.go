package silo

import (
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ermia/internal/wal"
)

// fuzzSeedLog builds a small valid value log and returns its bytes.
func fuzzSeedLog(f *testing.F) []byte {
	st := wal.NewMemStorage()
	db, err := Open(Config{Storage: st, EpochInterval: time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}} {
		txn := db.Begin(0)
		if err := txn.Update(tbl, []byte(kv[0]), []byte(kv[1])); err != nil {
			txn.Abort()
			txn = db.Begin(0)
			if err := txn.Insert(tbl, []byte(kv[0]), []byte(kv[1])); err != nil {
				f.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	txn := db.Begin(0)
	if err := txn.Delete(tbl, []byte("b")); err != nil {
		f.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		f.Fatal(err)
	}
	db.Close()

	fl, err := st.Crash().Open(logName)
	if err != nil {
		f.Fatal(err)
	}
	defer fl.Close()
	size, err := fl.Size()
	if err != nil {
		f.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := fl.ReadAt(data, 0); err != nil && err != io.EOF {
		f.Fatal(err)
	}
	return data
}

// FuzzRecover feeds mutated value logs to Silo recovery: bit flips,
// truncations, and lying entry headers must recover a prefix or fail
// cleanly, never panic.
func FuzzRecover(f *testing.F) {
	seed := fuzzSeedLog(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:entryHeader-3])
	flip := append([]byte(nil), seed...)
	flip[len(flip)/3] ^= 0x20
	f.Add(flip)
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFF0) // total lies
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := wal.NewMemStorage()
		fl, err := st.Create(logName)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if _, err := fl.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
		}
		fl.Sync()
		fl.Close()
		db, err := Recover(Config{Storage: st.Crash(), EpochInterval: time.Hour})
		if err == nil {
			db.Close()
		}
	})
}
