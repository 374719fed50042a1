package core

import (
	"ermia/internal/engine"
	"ermia/internal/wal"
)

// This file is the fault-containment layer: a log-device failure costs write
// availability, not the whole database. ERMIA's redo-only log holds only
// committed state (§3.7), and the version chains the log describes live in
// memory — so when the device dies, reads keep running against intact
// in-memory state while updates (which must reach the log to commit) are
// refused with engine.ErrReadOnlyDegraded until Reattach heals the log.

// Health implements engine.Durable.
func (db *DB) Health() engine.HealthStatus { return db.health.Status() }

// Reattach heals a Degraded DB once the log device works again, or has been
// replaced by st (nil keeps the current device; a non-nil replacement must
// hold the durable segment files). It quiesces log writers and delegates to
// engine.Health.Reattach, the log repair both engines share. Every commit
// acknowledged durable before the fault is preserved.
func (db *DB) Reattach(st wal.Storage) (engine.ReattachReport, error) {
	// Writers hold the gate read-locked across their log windows; taking it
	// exclusively guarantees no reservation is in flight while the log
	// rebuilds its horizons.
	db.logGate.Lock()
	defer db.logGate.Unlock()
	rep, err := db.health.Reattach(db.logMgr(), st)
	if err == nil && st != nil {
		// Checkpoints write their blobs to the same device.
		db.cfg.WAL.Storage = st
	}
	return rep, err
}
