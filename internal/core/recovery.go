package core

import (
	"fmt"
	"io"

	"ermia/internal/mvcc"
	"ermia/internal/wal"
)

// Recover rebuilds a DB from cfg.WAL.Storage (§3.7). The process is the
// same after a clean shutdown and after a crash: restore the most recent
// usable checkpoint (if any), then roll forward with one scan of the log
// from the checkpoint's begin record, replaying the operations of committed
// transactions. The log can be truncated at the first hole without losing
// committed work, because it contains only committed state.
func Recover(cfg Config) (*DB, error) {
	db, ap, res, err := recoverState(cfg, false)
	if err != nil {
		return nil, err
	}
	ap.Close()
	// Resume the log at the recovered horizon and restart background work.
	log, err := wal.Open(cfg.WAL, res)
	if err != nil {
		return nil, err
	}
	db.log.Store(log)
	db.startGC()
	return db, nil
}

// recoverState is the shared restore path behind Recover and OpenReplica:
// restore the newest usable checkpoint in cfg.WAL.Storage, then roll forward
// through an Applier with one wal.Recover scan from its begin record (or the
// log's start). It returns the rebuilt DB (no log manager, no GC running),
// the applier, still open, and the scan result.
//
// A checkpoint is usable when its blob verifies and its begin offset holds a
// checkpoint-begin block; otherwise recovery falls back to the previous blob.
// Checkpoint makes that block durable before it publishes the blob, so a
// missing one means damaged storage, and adopting the blob would put versions
// above the resumed log clock. A blob that verifies but fails to decode is a
// software bug, not device damage, and surfaces as an error. On a replica a
// seeded blob reaches past the mirrored log by design, so it is adopted
// without its begin block, and the scan reads the mirror from its start.
func recoverState(cfg Config, replica bool) (*DB, *Applier, *wal.RecoverResult, error) {
	if cfg.WAL.Storage == nil {
		return nil, nil, nil, fmt.Errorf("core: recovery requires explicit WAL storage")
	}
	st := cfg.WAL.Storage
	segs, err := wal.Segments(st)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: log scan: %w", err)
	}
	names, err := st.List()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: list checkpoints: %w", err)
	}

	db := newDB(cfg, nil)

	// Blob names order by begin offset, then generation: walk the sorted
	// listing backwards.
	var ckpt CheckpointInfo
	var from uint64
	for i := len(names) - 1; i >= 0; i-- {
		nameBegin, _, ok := parseCheckpointName(names[i])
		if !ok {
			continue
		}
		b, err := wal.ReadBlock(st, segs, nameBegin)
		logged := err == nil && b.Type == wal.BlockCheckpointBegin
		if !logged && !replica {
			continue
		}
		image, rerr := readCheckpointBlob(st, names[i])
		if rerr != nil {
			continue
		}
		gen, begin, payload, verr := verifyCheckpointImage(image)
		if verr != nil || begin != nameBegin {
			continue // damaged blob or header: fall back
		}
		if err := db.loadCheckpoint(payload, begin, nil); err != nil {
			return nil, nil, nil, err
		}
		ckpt = CheckpointInfo{Name: names[i], Gen: gen, Begin: begin}
		if logged {
			from = begin
		}
		break
	}

	// Roll forward through the same Applier a replica uses for streaming.
	ap := db.NewApplier(st, segs, ckpt.Begin)
	res, err := wal.Recover(st, from, ap.Apply)
	if err != nil {
		ap.Close()
		return nil, nil, nil, fmt.Errorf("core: replay: %w", err)
	}
	if ckpt.Name != "" {
		ckpt.Floor = ap.chainFloor
		db.setLastCheckpoint(ckpt)
	}
	return db, ap, res, nil
}

// readCheckpointBlob reads a checkpoint blob's raw image, for
// verifyCheckpointImage.
func readCheckpointBlob(st wal.Storage, name string) ([]byte, error) {
	f, err := st.Open(name)
	if err != nil {
		return nil, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return buf, nil
}

// applyRecords replays the records of one committed transaction, stamping
// every installed version with the transaction's commit offset.
func (db *DB) applyRecords(payload []byte, cstamp uint64) error {
	return decodeRecords(payload, func(r logRecord) error {
		switch r.kind {
		case recCreateTable, recCreateIndex:
			return db.applyCatalog(r)
		case recVersion, recBind:
			return fmt.Errorf("core: checkpoint record kind %d in a commit block", r.kind)
		}
		t, err := db.recordTable(r)
		if err != nil {
			return err
		}
		switch r.kind {
		case recInsert, recInsertSec:
			db.applyVersion(t, oidOf(r), cloneKey(r.key), cloneKey(r.val), cstamp, false, true)
			for _, s := range r.sec {
				si := db.secondaryByID(s.index)
				if si == nil {
					return fmt.Errorf("core: record for unknown secondary index %d", s.index)
				}
				bindSecondary(si, cloneKey(s.key), oidOf(r), r.key)
			}
		case recUpdate:
			db.applyVersion(t, oidOf(r), nil, cloneKey(r.val), cstamp, false, false)
		case recDeleteKey:
			// The tombstone's value is the record's key.
			db.applyVersion(t, oidOf(r), nil, cloneKey(r.key), cstamp, true, false)
		}
		return nil
	})
}

// applyCatalog replays a create-table or create-index record, from the log
// or from a checkpoint body.
func (db *DB) applyCatalog(r logRecord) error {
	if r.kind == recCreateTable {
		db.createTableRecovered(r.table, string(r.key))
	} else if db.createSecondaryRecovered(r.index, r.table, string(r.key)) == nil {
		return fmt.Errorf("core: index %q references unknown table %d", r.key, r.table)
	}
	return nil
}

// recordTable resolves the table a data record names and checks its OID.
func (db *DB) recordTable(r logRecord) (*Table, error) {
	t := db.tableByID(r.table)
	if t == nil {
		return nil, fmt.Errorf("core: record for unknown table %d", r.table)
	}
	if !mvcc.ValidOID(oidOf(r)) {
		return nil, fmt.Errorf("core: record with invalid OID %d", r.oid)
	}
	return t, nil
}

func oidOf(r logRecord) mvcc.OID { return mvcc.OID(r.oid) }
