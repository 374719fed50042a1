package client_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ermia/internal/server"
)

// BenchmarkWireTxn is the session round trip in isolation: callers
// goroutines sharing one loopback connection, each running read-only
// transactions of four point reads. writes/txn is the client's socket writes
// per transaction: 4 for a lone caller, one per round trip it waits for (the
// held Commit rides the next transaction's first write), and fewer with four
// callers, whose frames share writes. ns/op is wall time
// per transaction, and allocs/op (the server being in-process) counts both
// ends.
func BenchmarkWireTxn(b *testing.B) {
	for _, callers := range []int{1, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) { benchWireTxn(b, callers) })
	}
}

func benchWireTxn(b *testing.B, callers int) {
	_, addr := startServer(b, openCore(b), server.Config{})
	var writes atomic.Int64
	c := countingDial(b, addr, &writes) // PoolSize 1: every caller on one connection
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
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
				txn := c.BeginReadOnly(0)
				for j := 0; j < 4; j++ {
					if _, err := txn.Get(tbl, key(i*4+j)); err != nil {
						b.Error(err)
						return
					}
				}
				if err := txn.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(writes.Load()-w0)/float64(b.N), "writes/txn")
}
