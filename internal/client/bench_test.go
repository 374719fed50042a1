package client_test

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"ermia/internal/server"
)

// BenchmarkWireTxn is the session round trip in isolation: one caller, one
// loopback connection, a read-only transaction of four point reads.
// writes/txn is the client's socket writes per transaction — one per round
// trip it waits for — next to the usual ns/op and allocs/op (which, the
// server being in-process, count both ends).
func BenchmarkWireTxn(b *testing.B) {
	_, addr := startServer(b, openCore(b), server.Config{})
	var writes atomic.Int64
	c := countingDial(b, addr, &writes)
	tbl := c.CreateTable("t")
	const rows = 1024
	key := func(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i%rows)) }
	load := c.Begin(0)
	for i := 0; i < rows; i++ {
		if err := load.Insert(tbl, key(i), []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	w0 := writes.Load()
	for i := 0; i < b.N; i++ {
		txn := c.BeginReadOnly(0)
		for j := 0; j < 4; j++ {
			if _, err := txn.Get(tbl, key(i*4+j)); err != nil {
				b.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(writes.Load()-w0)/float64(b.N), "writes/txn")
}
