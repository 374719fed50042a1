package silo

import (
	"encoding/binary"
	"testing"
	"time"

	"ermia/internal/wal"
)

// fuzzSeedSegment runs a small workload and returns the durable image of its
// one wal segment, with the segment's file name.
func fuzzSeedSegment(f *testing.F) (name string, data []byte) {
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

	crashed := st.Crash()
	names, err := crashed.List()
	if err != nil || len(names) != 1 {
		f.Fatalf("seed run left segments %v, %v; want one", names, err)
	}
	fl, err := crashed.Open(names[0])
	if err != nil {
		f.Fatal(err)
	}
	defer fl.Close()
	size, err := fl.Size()
	if err != nil {
		f.Fatal(err)
	}
	data = make([]byte, size)
	if _, err := fl.ReadAt(data, 0); err != nil {
		f.Fatal(err)
	}
	return names[0], data
}

// FuzzRecover feeds mutated wal segment images to Silo recovery: bit flips,
// truncations, and lying block headers must recover a prefix or fail
// cleanly, never panic.
func FuzzRecover(f *testing.F) {
	const blockHeader = 32 // wal block header: magic, type, size, offset, prev, plen, checksum
	name, seed := fuzzSeedSegment(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:blockHeader-3])
	flip := append([]byte(nil), seed...)
	flip[blockHeader+1] ^= 0x20 // first commit block's payload
	f.Add(flip)
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFC0) // block size lies
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := wal.NewMemStorage()
		fl, err := st.Create(name)
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
