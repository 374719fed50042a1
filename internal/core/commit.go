package core

import (
	"runtime"

	"ermia/internal/engine"
	"ermia/internal/mvcc"
	"ermia/internal/txnid"
	"ermia/internal/wal"
)

// Commit runs pre-commit and post-commit (§3.1, §3.6). Pre-commit obtains
// the commit LSN with one fetch-and-add, runs the CC commit protocol (SSN's
// Algorithm 1 when serializable), copies the private log records into the
// reserved central-buffer space, and flips the state to committed — the
// point at which all updates become atomically visible. Post-commit
// replaces TID stamps in the write set with the commit LSN and releases
// resources.
//
// On a conflict error the transaction has already been aborted.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Commit() error {
	if t.done {
		return engine.ErrAborted
	}
	if len(t.writes) == 0 {
		// Read-only: nothing to log or install. SSN still validates — a
		// read-only transaction can close a cycle.
		var err error
		if t.ssn {
			err = t.ssnReadOnlyCommit()
		}
		if err != nil {
			t.Abort()
			return err
		}
		t.finish(true)
		return nil
	}

	// Encode the write set into the private buffer (unless per-op logging
	// already shipped the records, in which case the commit block is just
	// the anchor of the chain).
	t.logBuf = t.logBuf[:0]
	if !t.db.cfg.LogPerOperation {
		for i := range t.writes {
			t.logBuf = t.encodeWrite(t.logBuf, &t.writes[i])
			if len(t.logBuf) > t.db.logMgr().MaxPayload()-512 {
				// Oversized footprint: spill into a backward-linked
				// overflow block (§3.3, feature 4).
				if err := t.spillOverflow(); err != nil {
					t.Abort()
					return err
				}
			}
		}
	}

	// Single global synchronization point: commit LSN + log space. The gate
	// stays read-locked until the reservation is finished (Commit or Abort)
	// so a concurrent Reattach never observes a half-filled claim.
	ls := t.clock()
	t.db.logGate.RLock()
	// Committing first, stamp second: anyone who still finds this transaction
	// active may conclude that its stamp will be later than any offset they
	// have seen, and anyone who finds it committing waits for the stamp.
	t.db.tids.SetCommitting(t.tid, 0)
	res, err := t.db.logMgr().Reserve(len(t.logBuf), wal.BlockCommit)
	t.accLog(ls)
	if err != nil {
		t.db.logGate.RUnlock()
		t.Abort()
		return t.db.health.Unavailable(err)
	}
	cstamp := res.Offset()
	t.db.tids.SetCommitting(t.tid, cstamp)

	if t.ssn {
		if err := t.ssnCommit(cstamp); err != nil {
			res.Abort() // the claimed space becomes a skip record
			t.db.logGate.RUnlock()
			t.Abort()
			return err
		}
	}

	// Populate the reserved space and commit the block.
	ls = t.clock()
	res.SetPrev(t.opChain)
	res.Append(t.logBuf)
	res.Commit()
	t.db.logGate.RUnlock()
	t.accLog(ls)

	t.db.tids.SetCommitted(t.tid)

	// Post-commit: replace TID stamps with the commit LSN so readers check
	// visibility without chasing our context, and queue what this commit made
	// obsolete for RunGC — the versions it overwrote, the records it deleted —
	// each entry only after its new version carries the final stamp, because
	// neither Prune nor Seal acts on a TID-stamped version.
	ps := t.clock()
	garbage := &t.db.workers[t.worker].garbage
	garbage.mu.Lock()
	for i := range t.writes {
		w := &t.writes[i]
		w.newV.MaxPstamp(cstamp) // new version: cstamp = pstamp = t.cstamp
		if t.ssn && w.prev != nil {
			w.prev.SetSstamp(t.sstamp) // final π(V) for the overwritten version
		}
		w.newV.SetCLSN(cstamp)
		if w.prev != nil || w.newV.Tombstone {
			garbage.entries = append(garbage.entries, garbageEntry{w.tbl, w.oid, cstamp})
		}
	}
	garbage.mu.Unlock()
	t.accIndirect(ps)

	t.finish(true)
	return nil
}

// ssnCommit is SSN's commit protocol (Algorithm 1) with the parallel
// coordination the implementation needs: overwritten versions are tagged
// with our TID so concurrent committers chase our context, and committing
// readers with smaller commit stamps are waited out so their η updates are
// seen.
func (t *Txn) ssnCommit(cstamp uint64) error {
	if err := t.validateNodes(cstamp); err != nil {
		return err
	}

	// (The versions this transaction overwrote have carried its TID as their
	// successor stamp since the overwrite — see ssnWrite — so a committing
	// reader of one of them finds us here, or found us active.)

	// Finalize η(T): latest committed reader/creator among overwritten
	// versions. Readers still committing with smaller stamps must finish
	// first — they publish their η updates before flipping to committed.
	for i := range t.writes {
		p := t.writes[i].prev
		if p == nil {
			continue
		}
		t.waitReaders(p, cstamp)
		if ps := p.Pstamp(); ps > t.pstamp {
			t.pstamp = ps
		}
	}

	// Finalize π(T): earliest committed successor among read versions.
	if cstamp < t.sstamp {
		t.sstamp = cstamp
	}
	for _, v := range t.reads {
		if ss := t.resolveSstamp(v, cstamp); ss < t.sstamp {
			t.sstamp = ss
		}
	}

	// The exclusion window test: a predecessor may not also be a successor.
	if t.sstamp <= t.pstamp {
		t.db.stats.SerialAborts.Add(1)
		return engine.ErrSerialization
	}

	// Commit is now certain. Publish η(V) for reads before the status
	// flips so overwriters that waited on us observe the update.
	for _, v := range t.reads {
		v.MaxPstamp(cstamp)
	}
	return nil
}

// validateNodes is phantom protection, in two halves that meet in the leaf.
// An insert that lands in a tracked leaf before this point changes the leaf's
// version, and the transaction aborts: it may have missed a key it should
// have seen. An insert that lands later finds cstamp on every leaf where the
// transaction relied on a key being absent, and takes it as a predecessor
// stamp (ssnInsert), which orders the inserter after this transaction as the
// tombstone's η(V) would have, had the key been deleted and not reclaimed.
// Publishing before validating is what leaves no window between the two; an
// abort further on leaves the stamps raised, which is only conservative. In
// the other direction a gap may be a reclaimed delete, whose stamp the
// transaction takes from DB.deleteFloor (see reclaim).
func (t *Txn) validateNodes(cstamp uint64) error {
	gaps := false
	for i := range t.nodeSet {
		if n := &t.nodeSet[i]; n.gap {
			n.h.RaiseStamp(cstamp)
			gaps = true
		}
	}
	if gaps {
		// What was read there may be a delete the collector has reclaimed.
		if f := t.db.deleteFloor.Load(); f > t.pstamp {
			t.pstamp = f
		}
	}
	for i := range t.nodeSet {
		if !t.nodeSet[i].h.Valid() {
			t.db.stats.PhantomAborts.Add(1)
			return engine.ErrPhantom
		}
	}
	return nil
}

// ssnReadOnlyCommit runs the exclusion test for a transaction with no
// writes; η(T) came entirely from forward processing. The pseudo commit
// stamp sits just below the begin-stamp clock (the log's current offset, or
// the replay watermark on a replica) so it can never collide with a real
// writer's stamp: a writer reserving now gets exactly CurrentOffset, and the
// reader genuinely serializes before it (it cannot have seen that writer's
// versions).
func (t *Txn) ssnReadOnlyCommit() error {
	// Committing before the stamp is read, as in Commit: an overwriter of
	// something we read either still finds us active — then its own stamp is
	// already taken and ours comes out later, so we wait for its outcome
	// below — or waits for our η(V) updates before it finalizes its own η.
	t.db.tids.SetCommitting(t.tid, 0)
	cstamp := t.db.beginStamp() - 1
	t.db.tids.SetCommitting(t.tid, cstamp)
	// A replica's index changes only under its applier, which replays
	// transactions the primary already certified against each other.
	if !t.db.replica.Load() {
		if err := t.validateNodes(cstamp); err != nil {
			return err
		}
	}
	if cstamp < t.sstamp {
		t.sstamp = cstamp
	}
	for _, v := range t.reads {
		if ss := t.resolveSstamp(v, cstamp); ss < t.sstamp {
			t.sstamp = ss
		}
	}
	if t.sstamp <= t.pstamp {
		t.db.stats.SerialAborts.Add(1)
		return engine.ErrSerialization
	}
	for _, v := range t.reads {
		v.MaxPstamp(cstamp)
	}
	return nil
}

// waitReaders blocks until every in-flight reader of v that entered
// pre-commit with a stamp before cstamp has resolved, so its η(V) update is
// visible to us.
func (t *Txn) waitReaders(v *mvcc.Version, cstamp uint64) {
	v.Readers(func(slot int) {
		if slot == t.worker {
			return
		}
		for {
			raw := t.db.workerTID[slot].Load()
			if raw == 0 {
				return
			}
			status, rc, ok := t.db.tids.Inquire(txnid.TID(raw))
			if !ok || status != txnid.StatusCommitting || rc >= cstamp {
				return
			}
			runtime.Gosched()
		}
	})
}

// spillOverflow ships the current private buffer as an overflow block,
// linked backward from the eventual commit block. A checkpoint cut taken
// before the commit block keeps the chain (chainFloor).
func (t *Txn) spillOverflow() error {
	ls := t.clock()
	defer t.accLog(ls)
	t.db.logGate.RLock()
	defer t.db.logGate.RUnlock()
	res, err := t.db.logMgr().Reserve(len(t.logBuf), wal.BlockOverflow)
	if err != nil {
		return t.db.health.Unavailable(err)
	}
	res.SetPrev(t.opChain)
	res.Append(t.logBuf)
	res.Commit()
	t.opChain = res.Offset()
	t.logBuf = t.logBuf[:0]
	return nil
}

// Abort rolls back: the write set is unlinked from the version chains,
// overwritten versions get their successor stamps restored, keys this
// transaction brought into the index leave it again, and resources return to
// their epoch managers. Safe to call on a transaction whose Commit already
// failed (Commit aborts internally first).
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish, which runs at the end of this call
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.db.tids.SetAborted(t.tid)
	for i := range t.writes {
		w := &t.writes[i]
		if w.prev != nil {
			w.prev.SetSstamp(mvcc.Infinity) // undo ssnWrite's tag
		}
		next := w.newV.Next()
		if next == nil || next.Absent() {
			// Nothing (but our own absent version) lies behind ours: the
			// record never existed, so retire the OID and take the key back
			// out of the index, in that order (see reclaim). A racing insert
			// of the same key waits out our TID stamp, meets the seal and goes
			// back to the index.
			if w.tbl.arr.Seal(w.oid, w.newV) {
				t.db.unlink(w.tbl, w.key, w.oid)
			}
			continue
		}
		if !w.tbl.arr.CASHead(w.oid, w.newV, next) {
			// Only this transaction may unlink its own uncommitted head;
			// a failure means it already did (duplicate entry), fine.
			continue
		}
		if s := next.CLSN(); next.Tombstone && !mvcc.IsTID(s) {
			// We were re-inserting over a tombstone, which is the chain's
			// head again. Its garbage entry may have been spent while ours
			// stood in the way; queue another.
			t.db.workers[t.worker].garbage.add(garbageEntry{w.tbl, w.oid, s})
		}
	}
	// In per-op mode the already-shipped chain blocks are simply never
	// referenced by a commit block; recovery ignores them.
	t.finish(false)
}

// finish releases TID-table and epoch resources, clears reader marks, and
// hands the scratch arrays back to the worker context; the finished Txn keeps
// none, so a stale handle can never reach the slot's next transaction.
func (t *Txn) finish(committed bool) {
	for _, v := range t.reads {
		v.ClearReader(t.worker)
	}
	t.db.workerTID[t.worker].Store(0)
	t.db.tids.Release(t.tid)
	ws := &t.db.workers[t.worker]
	ws.scratch, t.txnScratch = t.parked(), txnScratch{}
	if ws.live--; ws.live == 0 {
		ws.begin.Store(stampIdle)
	}
	ws.slot.Quiesce()
	ws.slot.Exit()
	if committed {
		t.db.stats.Commits.Add(1)
	} else {
		t.db.stats.Aborts.Add(1)
	}
	t.done = true
}

var _ engine.Txn = (*Txn)(nil)
