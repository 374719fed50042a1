package silo

import (
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/wal"
)

// Fault containment mirrors the core engine's: a value-log device failure
// moves the DB to Degraded instead of silently dropping committed work (the
// seed's appendLog discarded WriteAt errors). While degraded, snapshot and
// OCC read-only transactions keep committing from the in-memory records;
// transactions that write are refused with engine.ErrReadOnlyDegraded. Every
// entry the dead device refused is kept, with its assigned offset, in a
// pending list so Reattach can rewrite it and lose nothing.

// pendingEntry is a value-log entry the device refused: its bytes and the
// file offset the log sequence already assigned to it.
type pendingEntry struct {
	off int64
	buf []byte
}

// Health implements engine.Durable.
func (db *DB) Health() engine.HealthStatus { return db.health.Status() }

// WaitDurable forces the value log to disk — the epoch ticker's group-commit
// action on demand (tests and benchmarks run with long epochs, and a server
// over Silo calls it as its group committer's device wait).
func (db *DB) WaitDurable() error {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if h := db.health.Status(); h.State != engine.Healthy {
		if h.Cause != nil {
			return h.Cause
		}
		return wal.ErrClosed
	}
	if err := db.logFile.Sync(); err != nil {
		return db.health.Note(err)
	}
	db.durable.Store(uint64(db.logOff))
	return nil
}

// DurableOffset implements engine.Durable: the value-log bytes the last
// successful sync covered.
func (db *DB) DurableOffset() uint64 { return db.durable.Load() }

// Reattach recovers a degraded DB: pending value-log entries are rewritten
// at their assigned offsets — on the healed device, or on a replacement
// Storage that carries the durable image of the old one — synced, and the DB
// returns to Healthy. Committed transactions whose entries were pending are
// thereby made durable; nothing previously durable is touched. A failed
// rewrite leaves the DB Degraded, so Reattach can be retried.
func (db *DB) Reattach(st wal.Storage) (engine.ReattachReport, error) {
	var rep engine.ReattachReport
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if err := db.health.CanReattach(); err != nil {
		return rep, err
	}
	file := db.logFile
	if st != nil {
		f, err := st.Open(logName)
		if err != nil {
			if f, err = st.Create(logName); err != nil {
				return rep, fmt.Errorf("silo: reattach: %w", err)
			}
		}
		file = f
		rep.NewDevice = true
	}
	for _, p := range db.pending {
		if _, err := file.WriteAt(p.buf, p.off); err != nil {
			return rep, fmt.Errorf("silo: reattach rewrite: %w", err)
		}
		rep.Replayed += uint64(len(p.buf))
	}
	if err := file.Sync(); err != nil {
		return rep, fmt.Errorf("silo: reattach sync: %w", err)
	}
	if st != nil {
		if db.logFile != nil {
			db.logFile.Close()
		}
		db.logFile = file
		db.cfg.Storage = st
	}
	db.pending = nil
	db.durable.Store(uint64(db.logOff))
	db.health.Heal()
	return rep, nil
}
