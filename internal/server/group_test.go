package server_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/core"
	"ermia/internal/faultfs"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// BenchmarkGroupCommit drives enqueue→ack through the group committer over a
// modelled 140 µs device sync, across connections × transactions in flight
// per connection. Every transaction is one insert on a key no other worker
// touches, so the commit path — session, committer, WaitDurable, device
// sync, ack — is all that is measured. commits/batch is what one committer
// wakeup amortizes; syncs/commit is what the device pays per commit.
//
//	go test -run '^$' -bench GroupCommit -benchtime 200x ./internal/server/
func BenchmarkGroupCommit(b *testing.B) {
	for _, clients := range []int{1, 4, 8} {
		for _, depth := range []int{1, 4} {
			b.Run(fmt.Sprintf("clients=%d/depth=%d", clients, depth), func(b *testing.B) {
				benchGroupCommit(b, clients, depth)
			})
		}
	}
}

func benchGroupCommit(b *testing.B, clients, depth int) {
	gate := faultfs.NewSyncGate(wal.NewMemStorage(), 140*time.Microsecond)
	db := openCore(b, core.Config{WAL: wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20, Storage: gate}})
	workers := clients * depth
	srv, addr := serve(b, db, server.Config{Workers: workers + 1, MaxConns: clients + 1})
	// Worker w rides connection w % clients, so each connection carries
	// depth transactions at once.
	c := dial(b, addr, clients)
	tbl := c.CreateTable("bench")
	value := make([]byte, 100)

	before, syncs := srv.Stats(), gate.Syncs()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
				txn := c.Begin(w)
				err := txn.Insert(tbl, []byte(fmt.Sprintf("w%03d-%012d", w, i)), value)
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Abort()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	after := srv.Stats()
	if batches := after.GroupBatches - before.GroupBatches; batches > 0 {
		b.ReportMetric(float64(after.GroupCommits-before.GroupCommits)/float64(batches), "commits/batch")
	}
	b.ReportMetric(float64(gate.Syncs()-syncs)/float64(b.N), "syncs/commit")
}
