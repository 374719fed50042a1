package tpcc

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// TestIndexLenFlatUnderDelivery: delivered orders leave the NEW-ORDER index.
// A Delivery-heavy run with the background collector on must keep the
// index's length within a small constant of the live rows at every sample —
// the dead keys a district scan has to step over are what one GC interval
// deleted, not everything delivered since load — and end, after a final
// round, with exactly the live rows.
func TestIndexLenFlatUnderDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second run skipped in -short mode")
	}
	db, err := core.Open(core.Config{
		WAL:          wal.Config{SegmentSize: 8 << 20, BufferSize: 2 << 20},
		Serializable: true,
		GCInterval:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d := loadDriver(t, db, 2)
	neworder := d.neworder.(*core.Table)

	// NEW-ORDER feeds the table, Delivery drains it ten rows at a time; this
	// mix keeps it from running dry for the whole window.
	mix := []MixEntry{{NewOrder, 80}, {Delivery, 5}, {Payment, 15}}
	const workers = 2
	loaded := tableCount(t, db, d.neworder)
	deadline := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup
	var ordered atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(uint64(id), 0xDE11)
			for time.Now().Before(deadline) {
				kind := Pick(mix, rng)
				err := d.Run(kind, id+1, rng) // slot 0 is tableCount's
				switch {
				case err == nil:
					if kind == NewOrder {
						ordered.Add(1)
					}
				case IsUserAbort(err) || engine.IsRetryable(err):
				default:
					t.Errorf("%v: %v", kind, err)
					return
				}
			}
		}(w)
	}

	// Sample the dead keys (index entries minus rows a snapshot sees) while
	// the load runs. The sampling scan is itself a reader that holds the
	// horizon for its duration, so the bound is a few GC intervals' deletes.
	maxDead, samples := 0, 0
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		entries := neworder.Len()
		live := tableCount(t, db, d.neworder)
		if dead := entries - live; dead > maxDead {
			maxDead = dead
		}
		samples++
	}
	wg.Wait()

	db.RunGC()
	live := tableCount(t, db, d.neworder)
	deleted := loaded + int(ordered.Load()) - live
	if deleted < 500 {
		t.Fatalf("only %d rows deleted in the window; the run proves nothing", deleted)
	}
	if maxDead > 1500 || maxDead > deleted/2 {
		t.Fatalf("up to %d dead keys in the NEW-ORDER index (over %d samples, %d rows deleted): deleted keys are piling up",
			maxDead, samples, deleted)
	}
	if entries := neworder.Len(); entries != live {
		t.Fatalf("quiesced: NEW-ORDER index holds %d entries for %d live rows", entries, live)
	}
	// Every table's reclaimed entries are counted together; the rest are the
	// keys of New-Order's 1 % rollbacks, taken back out by Abort.
	reclaimed := int(db.Stats().IndexEntriesReclaimed.Load())
	t.Logf("%d rows deleted, %d index entries reclaimed, at most %d dead keys over %d samples, %d live rows",
		deleted, reclaimed, maxDead, samples, live)
	if reclaimed < deleted || reclaimed > deleted+deleted/2 {
		t.Fatalf("IndexEntriesReclaimed = %d for %d deleted rows", reclaimed, deleted)
	}

	txn := db.Begin(0)
	defer txn.Abort()
	for w := 1; w <= d.cfg.Warehouses; w++ {
		checkWarehouse(t, txn, d, w)
	}
}
