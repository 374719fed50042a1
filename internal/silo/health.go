package silo

import (
	"ermia/internal/engine"
	"ermia/internal/wal"
)

// Fault containment is the core engine's: a log-device failure moves the DB
// to Degraded instead of silently dropping committed work. While degraded,
// snapshot and OCC read-only transactions keep committing from the in-memory
// records; transactions that write are refused with
// engine.ErrReadOnlyDegraded. Commits whose blocks the dead device refused
// stay in the wal's ring until Reattach replays them.

// Health implements engine.Durable.
func (db *DB) Health() engine.HealthStatus { return db.health.Status() }

// WaitDurable forces every commit so far to disk — the epoch ticker's
// group-commit action on demand (tests and benchmarks run with long epochs,
// and a server over Silo calls it as its group committer's device wait). A
// device error surfaces here and degrades the DB to read-only.
//
// It holds the gate's read side, so a Reattach cannot heal the log between
// a failed flush and Note: noting that stale error would degrade the healed
// DB again, with no fault left to reattach from.
func (db *DB) WaitDurable() error {
	db.logGate.RLock()
	defer db.logGate.RUnlock()
	return db.health.Note(db.log.Flush())
}

// DurableOffset implements engine.Durable: the log's group-commit horizon.
func (db *DB) DurableOffset() uint64 { return db.log.DurableOffset() }

// Reattach heals a Degraded DB on its current device (st nil) or on a
// replacement Storage that carries the durable segment files, through
// engine.Health.Reattach — the log repair the core engine uses.
func (db *DB) Reattach(st wal.Storage) (engine.ReattachReport, error) {
	// Committers hold the gate read-locked across their reservations.
	db.logGate.Lock()
	defer db.logGate.Unlock()
	return db.health.Reattach(db.log, st)
}
