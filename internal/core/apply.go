package core

import (
	"fmt"

	"ermia/internal/epoch"
	"ermia/internal/wal"
)

// Applier is the shared replay engine: it applies committed log blocks to
// the in-memory state, stamping every installed version with the block's
// commit offset. Startup recovery drives one over its log scan; a replica's
// streaming loop drives one incrementally, block by block, as batches
// arrive from the primary (see OpenReplica and internal/repl).
//
// An Applier is single-goroutine. Overflow chains are resolved through the
// supplied storage and segment metadata — the local log files during
// recovery, the replica's byte-compatible mirror during replication — so
// both paths share Apply/applyRecords verbatim.
type Applier struct {
	db   *DB
	st   wal.Storage
	segs []wal.SegmentMeta
	// ckptBegin skips blocks the restored checkpoint already covers.
	ckptBegin uint64
	// slot guards each application window against version reclamation when
	// the applier runs next to live readers (replica mode). Recovery could
	// run unguarded, but entering an uncontended epoch slot is cheap enough
	// not to special-case.
	slot *epoch.Slot
}

// NewApplier builds an applier over st with the given segment map. Blocks
// whose offset is at or below ckptBegin are skipped (the checkpoint restored
// them already).
func (db *DB) NewApplier(st wal.Storage, segs []wal.SegmentMeta, ckptBegin uint64) *Applier {
	return &Applier{
		db:        db,
		st:        st,
		segs:      append([]wal.SegmentMeta(nil), segs...),
		ckptBegin: ckptBegin,
		slot:      db.gcEpoch.Register(),
	}
}

// SetCheckpoint raises the skip horizon after a mid-stream checkpoint seed:
// blocks at or below begin are covered by the loaded image. Called from the
// applier's own goroutine (the single-goroutine contract covers it).
func (a *Applier) SetCheckpoint(begin uint64) {
	if begin > a.ckptBegin {
		a.ckptBegin = begin
	}
}

// AddSegment extends the segment map as the shipped log grows. A duplicate
// entry is harmless: a segment's name fixes its range.
func (a *Applier) AddSegment(sm wal.SegmentMeta) { a.segs = append(a.segs, sm) }

// Apply replays one committed transaction: its overflow chain, oldest
// first, then the commit block's own records. Other blocks (skips, overflow,
// checkpoint markers) carry no directly applicable state and return nil;
// overflow payloads are pulled in through their commit block's backward
// chain.
func (a *Applier) Apply(b wal.Block) error {
	if b.Type != wal.BlockCommit || b.LSN.Offset() <= a.ckptBegin {
		return nil
	}
	var chain [][]byte
	for prev := b.Prev; prev != 0; {
		ob, err := wal.ReadBlock(a.st, a.segs, prev)
		if err != nil {
			return fmt.Errorf("core: overflow chain at %#x: %w", prev, err)
		}
		chain = append(chain, ob.Payload)
		prev = ob.Prev
	}
	// The epoch window makes the whole block's installs visible as one unit
	// to the reclamation protocol; on a replica it also pins any version an
	// overwrite unlinks until concurrent snapshot readers have moved on.
	a.slot.Enter()
	defer a.slot.Exit()
	for i := len(chain) - 1; i >= 0; i-- {
		if err := a.db.applyRecords(chain[i], b.LSN.Offset()); err != nil {
			return err
		}
	}
	return a.db.applyRecords(b.Payload, b.LSN.Offset())
}

// Close releases the applier's epoch slot.
func (a *Applier) Close() { a.slot.Unregister() }
