package shard_test

import (
	"testing"
	"time"

	"ermia/internal/alloctest"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/shard"
	"ermia/internal/wal"
)

// crossRig is a two-shard loopback fleet and a router whose three commit
// devices (each shard's log, the decision log) are modelled alike: each is a
// SyncGate on which every sync takes syncDelay and is counted. The shards' flushers never sync on their own
// initiative, so every sync is one some acknowledgment waited for.
type crossRig struct {
	r         *shard.Router
	tbl       engine.Table
	a, b      []byte
	syncDelay time.Duration
	syncs     func() int64
}

func newCrossRig(t testing.TB, syncDelay time.Duration) *crossRig {
	cl := startClusterOn(t, 2, nil, syncDelay, func(st wal.Storage) core.Config {
		cfg := walOver(st)
		cfg.IdleSleep = time.Minute
		return core.Config{WAL: cfg}
	})
	logGate := faultfs.NewSyncGate(wal.NewMemStorage(), syncDelay)
	r, err := shard.NewRouterOver(cl.m, shard.Options{PoolSize: 1}, logGate)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	rig := &crossRig{
		r: r, tbl: r.CreateTable("t"), syncDelay: syncDelay,
		a: shardKey(t, cl.m, "t", 0), b: shardKey(t, cl.m, "t", 1),
		syncs: func() int64 { return logGate.Syncs() + cl.gates[0].Syncs() + cl.gates[1].Syncs() },
	}
	txn := r.Begin(0)
	for _, k := range [][]byte{rig.a, rig.b} {
		if err := txn.Insert(rig.tbl, k, []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return rig
}

// transfer is one cross-shard transaction: a write on each shard, committed
// by two-phase commit.
func (rig *crossRig) transfer(t testing.TB) {
	txn := rig.r.Begin(0)
	for _, k := range [][]byte{rig.a, rig.b} {
		if err := txn.Update(rig.tbl, k, []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// run times n transfers and returns syncs per transaction and how many sync
// latencies each transaction kept its caller waiting. The syncs are orders of
// magnitude slower than everything else a transfer does, so the second
// number is the count of forced writes on the caller's path, plus a little.
func (rig *crossRig) run(t testing.TB, n int) (syncsPerTxn, forcedWaitsPerTxn float64) {
	s0, t0 := rig.syncs(), time.Now()
	for i := 0; i < n; i++ {
		rig.transfer(t)
	}
	elapsed := time.Since(t0)
	return float64(rig.syncs()-s0) / float64(n), float64(elapsed) / float64(n) / float64(rig.syncDelay)
}

// BenchmarkCommitCross prices a cross-shard commit in device waits. Want 3
// syncs/txn (two prepare records, in parallel, and the coordinator's C
// record; the decides' log records ride the next prepare's sync) and 2
// forced-waits/txn on the caller's path.
func BenchmarkCommitCross(b *testing.B) {
	rig := newCrossRig(b, 2*time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	syncs, waits := rig.run(b, b.N)
	b.ReportMetric(syncs, "syncs/txn")
	b.ReportMetric(waits, "forced-waits/txn")
}

// TestCommitCrossBudget enforces what BenchmarkCommitCross reports: a
// cross-shard commit costs three syncs, its caller waits for two, and the
// whole transfer — both writes, both phases, both ends of every connection —
// stays inside its allocation budget.
func TestCommitCrossBudget(t *testing.T) {
	t.Run("syncs", func(t *testing.T) {
		rig := newCrossRig(t, 10*time.Millisecond)
		rig.transfer(t) // the first pays for connection set-up
		syncs, waits := rig.run(t, 15)
		if syncs > 3.1 {
			t.Errorf("%.2f syncs per cross-shard transaction, budget 3", syncs)
		}
		// Two forced waits and change; a third would put it past 3.
		if waits >= 3 {
			t.Errorf("caller waited %.2f sync latencies per cross-shard transaction, budget 2", waits)
		}
		t.Logf("%.2f syncs/txn, %.2f forced-waits/txn", syncs, waits)
	})
	t.Run("allocs", func(t *testing.T) {
		rig := newCrossRig(t, 0)
		alloctest.Budget(t, 230, func() { rig.transfer(t) })
	})
}
