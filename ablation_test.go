package ermia

import (
	"fmt"
	"testing"
	"time"

	"ermia/internal/core"
	"ermia/internal/epoch"
	"ermia/internal/wal"
)

// BenchmarkAblationSecondaryIndex quantifies the design choice §2 of the
// paper discusses: a secondary index that stores OIDs reaches the record
// with one tree probe, while the key-mapping alternative ("mapping primary
// keys and secondary keys") shifts the burden to readers — every secondary
// access entails an additional primary-index probe.
func BenchmarkAblationSecondaryIndex(b *testing.B) {
	const rows = 50000
	primKey := func(i int) []byte { return []byte(fmt.Sprintf("pk%08d", i)) }
	secKey := func(i int) []byte { return []byte(fmt.Sprintf("sk%08d", i*7%rows)) }

	b.Run("native-oid", func(b *testing.B) {
		db, err := core.Open(core.Config{WAL: wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20}})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		users := db.CreateTable("users")
		byName := db.CreateSecondaryIndex(users, "by_name")
		for base := 0; base < rows; base += 1000 {
			txn := db.BeginTxn(0)
			for i := base; i < base+1000 && i < rows; i++ {
				if err := txn.InsertWithSecondary(users, primKey(i), []byte("payload-data"),
					[]core.SecondaryEntry{{Index: byName, Key: secKey(i)}}); err != nil {
					b.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn := db.BeginTxn(0)
			if _, err := txn.GetBySecondary(byName, secKey(i%rows)); err != nil {
				b.Fatal(err)
			}
			txn.Abort()
		}
	})

	b.Run("key-mapping", func(b *testing.B) {
		db, err := core.Open(core.Config{WAL: wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20}})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		users := db.CreateTable("users")
		mapping := db.CreateTable("users_by_name") // secondary key -> primary key
		for base := 0; base < rows; base += 1000 {
			txn := db.Begin(0)
			for i := base; i < base+1000 && i < rows; i++ {
				if err := txn.Insert(users, primKey(i), []byte("payload-data")); err != nil {
					b.Fatal(err)
				}
				if err := txn.Insert(mapping, secKey(i), primKey(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn := db.Begin(0)
			pk, err := txn.Get(mapping, secKey(i%rows))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Get(users, pk); err != nil { // the extra probe
				b.Fatal(err)
			}
			txn.Abort()
		}
	})
}

// BenchmarkAblationEpochQuiesce measures the paper's conditional quiescent
// point (one shared read in the common case) against a full Exit/Enter
// round trip — the design that lets ERMIA run epoch managers at very fine
// timescales.
func BenchmarkAblationEpochQuiesce(b *testing.B) {
	b.Run("conditional-quiesce", func(b *testing.B) {
		m := epoch.NewManager(0)
		s := m.Register()
		defer s.Unregister()
		s.Enter()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Quiesce()
		}
	})
	b.Run("exit-enter", func(b *testing.B) {
		m := epoch.NewManager(0)
		s := m.Register()
		defer s.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Exit()
			s.Enter()
		}
	})
}

// BenchmarkAblationGroupCommit measures the cost a transaction pays to wait
// for durability versus ERMIA's default asynchronous group commit.
func BenchmarkAblationGroupCommit(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "async"
		if durable {
			name = "wait-durable"
		}
		b.Run(name, func(b *testing.B) {
			db, err := core.Open(core.Config{
				WAL: wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20,
					IdleSleep: 50 * time.Microsecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			tbl := db.CreateTable("t")
			txn := db.Begin(0)
			txn.Insert(tbl, []byte("k"), []byte("v0"))
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txn := db.Begin(0)
				if err := txn.Update(tbl, []byte("k"), []byte("vN")); err != nil {
					b.Fatal(err)
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
				if durable {
					if err := db.WaitDurable(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
