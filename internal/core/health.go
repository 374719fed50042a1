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
// hold the durable segment files). It quiesces log writers, delegates the
// log repair to wal.Manager.Reattach — which replays still-buffered
// committed work or reports it lost — and returns the DB to Healthy. Every
// commit acknowledged durable before the fault is preserved in either case.
//
// If the repair itself fails the DB moves to Failed: the instance must be
// replaced via Recover.
func (db *DB) Reattach(st wal.Storage) (engine.ReattachReport, error) {
	// Writers hold the gate read-locked across their log windows; taking it
	// exclusively guarantees no reservation is in flight while the log
	// rebuilds its horizons.
	db.logGate.Lock()
	defer db.logGate.Unlock()
	if err := db.health.CanReattach(); err != nil {
		return engine.ReattachReport{}, err
	}
	rep, err := db.logMgr().Reattach(st)
	if err != nil {
		db.health.Fail()
		return engine.ReattachReport{}, err
	}
	if st != nil {
		// Checkpoints write their blobs to the same device.
		db.cfg.WAL.Storage = st
	}
	db.health.Heal()
	return engine.ReattachReport{
		Replayed: rep.Replayed, HolesFilled: rep.HolesFilled, Lost: rep.Lost, NewDevice: st != nil,
	}, nil
}
