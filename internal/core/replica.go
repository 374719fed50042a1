package core

import (
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/wal"
)

// This file is the engine side of log-shipping replication. A replica is a
// DB whose durable state is a byte-compatible local mirror of the primary's
// log segments, written by the streaming layer (internal/repl). The engine
// never opens a log manager over the mirror while replicating: it replays
// shipped blocks through an Applier and serves read-only snapshot
// transactions whose begin timestamp is the replay watermark, so a reader
// can never observe half of a shipped transaction. Promotion seals the
// stream, replays the tail, and installs a real log manager — from then on
// the former replica is an ordinary primary.

// OpenReplica rebuilds a replica DB from cfg.WAL.Storage — the local mirror
// of the primary's log, possibly empty on a fresh replica. Whatever the
// mirror already holds (earlier shipped segments, mirrored checkpoints) is
// restored exactly as Recover would, but no log manager is opened and no
// background GC starts: the single applier goroutine owns both streaming
// replay and GC until promotion (see Applier and RunGC's guard).
//
// The returned Applier continues where the restore stopped; the scan result
// tells the streaming layer the offset to subscribe from (NextOffset) and
// the segments already mirrored.
func OpenReplica(cfg Config) (*DB, *Applier, *wal.RecoverResult, error) {
	// cfg.GCInterval is deliberately not started here: background GC would
	// race the applier's installs, so the streaming loop calls RunGC from
	// the applier goroutine instead. Promote starts the background sweeper.
	db, ap, res, err := recoverState(cfg, true)
	if err != nil {
		return nil, nil, nil, err
	}
	db.replica.Store(true)
	// The read horizon is the replayed log's end — or the checkpoint-begin
	// offset when a seeded checkpoint reaches further than the mirrored
	// suffix (a freshly bootstrapped replica restarting before catch-up):
	// the blob already holds every commit below its begin offset.
	db.watermark.Store(max(res.NextOffset, ap.ckptBegin))
	db.health.SetReplica()
	return db, ap, res, nil
}

// Promote turns a replica into a primary. The caller must have sealed the
// replication stream, drained the applier goroutine, and run the recovery
// tail over the mirror (internal/repl does all three), then opened a log
// manager over it with wal.Open; Promote installs that manager and flips
// the health state to Healthy.
//
// Ordering matters: the log is installed before the replica flag drops so
// beginStamp never sees a primary without a clock, and the flag drops
// before health flips so the write gate can only admit writers that will
// find a working log.
func (db *DB) Promote(log *wal.Manager) error {
	if log == nil {
		return fmt.Errorf("core: promote requires a log manager")
	}
	if db.health.State() != engine.Replica {
		return fmt.Errorf("core: promote: not a replica (%v)", db.Health())
	}
	db.log.Store(log)
	db.replica.Store(false)
	db.health.Heal()
	db.startGC()
	return nil
}
