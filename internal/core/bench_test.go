package core

import (
	"fmt"
	"testing"

	"ermia/internal/wal"
)

func benchDB(b *testing.B, serializable bool) *DB {
	b.Helper()
	db, err := Open(Config{
		WAL:          wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
		Serializable: serializable,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// BenchmarkTxnLifecycle measures whole transactions on one warm worker, so
// B/op and allocs/op are what begin → operations → commit cost beyond the
// work itself: the price of the transaction context.
func BenchmarkTxnLifecycle(b *testing.B) {
	const rows = 20000
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = wkey(i)
	}
	val := []byte("0123456789abcdef0123456789abcdef")

	b.Run("ShortReadWrite", func(b *testing.B) {
		db := benchDB(b, true)
		tbl := db.CreateTable("t")
		loadKeys(b, db, tbl, rows)
		newKeys := make([][]byte, b.N) // the index keeps the caller's key
		for n := range newKeys {
			newKeys[n] = []byte(fmt.Sprintf("n%09d", n))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			txn := db.BeginTxn(1)
			for i := 0; i < 16; i++ {
				if _, err := txn.Get(tbl, keys[(n*16+i)%rows]); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := txn.Update(tbl, keys[(n*2+i)%rows], val); err != nil {
					b.Fatal(err)
				}
			}
			if err := txn.Insert(tbl, newKeys[n], val); err != nil {
				b.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			if n%4096 == 4095 {
				db.RunGC()
			}
		}
	})
	for _, mode := range []struct {
		name         string
		serializable bool
	}{{"ssn", true}, {"si", false}} {
		b.Run("Read1000/"+mode.name, func(b *testing.B) {
			db := benchDB(b, mode.serializable)
			tbl := db.CreateTable("t")
			loadKeys(b, db, tbl, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				txn := db.BeginTxn(1)
				for i := 0; i < 1000; i++ {
					// Stride 17: the reads spread over every leaf, as a
					// join's probes do, instead of walking one leaf at a time.
					if _, err := txn.Get(tbl, keys[(n+i*17)%rows]); err != nil {
						b.Fatal(err)
					}
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunGC measures one GC round over a 200 000-row table with a given
// number of overwrites queued: its cost should follow that number, not the
// table.
func BenchmarkRunGC(b *testing.B) {
	const rows = 200000
	db := benchDB(b, false)
	tbl := db.CreateTable("t")
	loadKeys(b, db, tbl, rows)
	keys := make([][]byte, rows)
	for i := range keys {
		keys[i] = wkey(i)
	}
	val := []byte("v1")
	for _, queued := range []int{0, 1000, 100000} {
		b.Run(fmt.Sprintf("queued=%d", queued), func(b *testing.B) {
			db.RunGC()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i := 0; i < queued; {
					txn := db.BeginTxn(1 + i/100%8)
					for j := 0; j < 100 && i < queued; j, i = j+1, i+1 {
						if err := txn.Update(tbl, keys[i], val); err != nil {
							b.Fatal(err)
						}
					}
					if err := txn.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if pruned := db.RunGC(); pruned != queued {
					b.Fatalf("pruned %d versions, want %d", pruned, queued)
				}
			}
		})
	}
}

// BenchmarkScanPastDeleted measures a scan that wants the first live key of
// a range whose head has been deleted — Delivery's NEW-ORDER scan. Without a
// GC round in between it steps over every deleted key (and, under SSN, reads
// and tracks each tombstone); after one it starts at the live key, give or
// take the emptied leaves, which are not merged.
func BenchmarkScanPastDeleted(b *testing.B) {
	for _, deleted := range []int{0, 1000, 100000} {
		for _, gc := range []bool{false, true} {
			b.Run(fmt.Sprintf("deleted=%d/gc=%v", deleted, gc), func(b *testing.B) {
				db := benchDB(b, true)
				tbl := db.CreateTable("t")
				loadKeys(b, db, tbl, deleted+100)
				for i := 0; i < deleted; {
					txn := db.BeginTxn(0)
					for j := 0; j < 256 && i < deleted; j, i = j+1, i+1 {
						if err := txn.Delete(tbl, wkey(i)); err != nil {
							b.Fatal(err)
						}
					}
					mustCommit(b, txn)
				}
				if gc {
					db.RunGC()
				}
				want := string(wkey(deleted))
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					txn := db.BeginTxn(1)
					first := ""
					if err := txn.Scan(tbl, nil, nil, func(k, _ []byte) bool {
						first = string(k)
						return false
					}); err != nil || first != want {
						b.Fatalf("first live key %q, %v; want %q", first, err, want)
					}
					mustCommit(b, txn)
				}
			})
		}
	}
}
