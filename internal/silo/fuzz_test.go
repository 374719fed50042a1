package silo

import (
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ermia/internal/wal"
)

// fuzzSeedSegment runs a small workload and returns the durable image of its
// one wal segment, with the segment's file name. The segment's blocks all
// lie in its first 4 KiB.
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

// FuzzRecover feeds mutated wal log images to Silo recovery: bit flips,
// truncations, lying block headers and missing segments must recover a
// prefix or fail cleanly, never panic. The image is cut into 4 KiB segment
// files; a set bit in drop leaves that segment out.
func FuzzRecover(f *testing.F) {
	const blockHeader = 32 // wal block header: magic, type, size, offset, prev, plen, checksum
	const segSize = 4096
	_, seed := fuzzSeedSegment(f)
	f.Add(seed, uint8(0))
	f.Add(seed[:len(seed)/2], uint8(0))
	f.Add(seed[:blockHeader-3], uint8(0))
	flip := append([]byte(nil), seed...)
	flip[blockHeader+1] ^= 0x20 // first commit block's payload
	f.Add(flip, uint8(0))
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFC0) // block size lies
	f.Add(huge, uint8(0))

	st := wal.NewMemStorage()
	segmentedLog(f, st, 50)
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 3 || len(segs) > 8 {
		f.Fatalf("%d segments (%v); want 3 to 8", len(segs), err)
	}
	log := make([]byte, len(segs)*segSize)
	for i, sm := range segs {
		fl, err := st.Open(sm.Name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := fl.ReadAt(log[i*segSize:(i+1)*segSize], 0); err != nil && err != io.EOF {
			f.Fatal(err)
		}
		fl.Close()
	}
	f.Add(log, uint8(0))
	f.Add(log, uint8(1<<1)) // the second segment missing: a gap

	f.Fuzz(func(t *testing.T, data []byte, drop uint8) {
		st := wal.NewMemStorage()
		for i, sm := range segs {
			chunk := data[min(i*segSize, len(data)):min((i+1)*segSize, len(data))]
			if drop&(1<<i) != 0 || (i > 0 && len(chunk) == 0) {
				continue
			}
			fl, err := st.Create(sm.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk) > 0 {
				if _, err := fl.WriteAt(chunk, 0); err != nil {
					t.Fatal(err)
				}
			}
			fl.Sync()
			fl.Close()
		}
		db, err := Recover(Config{Storage: st.Crash(), EpochInterval: time.Hour})
		if err == nil {
			db.Close()
		}
	})
}
