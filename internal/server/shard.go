package server

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// This file is the participant side of cross-shard two-phase commit. The
// protocol state a participant owns is deliberately tiny:
//
//   - An open transaction becomes PREPARED when MsgShardPrepare lands: its
//     logical write set is persisted as a record in the ShardPrepTable
//     system table (committed through the ordinary engine path, so the
//     group committer's WaitDurable covers it), and the transaction itself
//     is moved out of its session into the server-global prepared registry
//     with its locks and worker slot intact. The prepare ack is released
//     only once the record is durable — from then on the writes can survive
//     any crash.
//
//   - MsgShardDecide resolves it: commit (or abort) the parked transaction
//     and delete the record. The ack waits for both to be durable, unless
//     the coordinator asked for it on apply (proto.ShardDecideOnApply); it
//     then keeps the decision until a later durable ack of this server
//     covers it — the next MsgShardPrepare names it in its decision list,
//     and applyDecision below re-applies whatever a restart undid first.
//     Either way the coordinator forgets a transaction only after a durable
//     confirmation from every participant, so an undeleted record can never
//     be orphaned: it is always either re-locked at startup and resolved by
//     a retried decide, or resolved through the record-replay path below.
//
//   - At startup, recoverPrepared replays every surviving record into a
//     fresh transaction (idempotently — the record may belong to a
//     transaction that already committed but crashed before cleanup) and
//     parks it, re-establishing first-updater-wins locks before the first
//     connection is accepted. Two prepared records can never conflict with
//     each other: overlapping write sets would have aborted one of the
//     transactions before it could prepare.
//
// Decisions are idempotent by construction: deciding a gid with no parked
// transaction and no record answers OK, so coordinators retry blindly
// across connection losses, participant restarts, and duplicated frames.

// ShardPrepTable is the system table holding durable prepare records,
// keyed by coordinator-chosen global transaction id (gid). The "__" prefix
// keeps it out of the way of application tables.
const ShardPrepTable = "__shard2pc"

// preparedTxn is one transaction parked between prepare and decide.
type preparedTxn struct {
	txn   engine.Txn
	slot  int
	epoch uint64
}

// prepOp is one logical write replayed from (or persisted into) a prepare
// record; ops use the wire op codes (MsgInsert/MsgUpdate/MsgDelete).
type prepOp struct {
	op    byte
	table string
	key   []byte
	value []byte
}

// encodePrepRecord serializes a prepare record value: the preparing epoch
// (diagnostic) and the ordered logical write set.
func encodePrepRecord(epoch uint64, ops []prepOp) []byte {
	p := proto.AppendU64(nil, epoch)
	p = proto.AppendU32(p, uint32(len(ops)))
	for _, op := range ops {
		p = proto.AppendU8(p, op.op)
		p = proto.AppendBytes(p, []byte(op.table))
		p = proto.AppendBytes(p, op.key)
		p = proto.AppendBytes(p, op.value)
	}
	return p
}

func decodePrepRecord(v []byte) ([]prepOp, error) {
	d := proto.NewDec(v)
	d.U64() // epoch, informational
	ops := decodePrepOps(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// decodePrepOps decodes a write set as prepare records and MsgShardPrepare
// both lay it out: u32 count, then per op code, table, key, value. A short
// payload leaves d's error set.
func decodePrepOps(d *proto.Dec) []prepOp {
	n := d.U32()
	var ops []prepOp
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := prepOp{op: d.U8(), table: string(d.Bytes())}
		op.key = append([]byte(nil), d.Bytes()...)
		op.value = append([]byte(nil), d.Bytes()...)
		ops = append(ops, op)
	}
	return ops
}

// prepTable lazily creates/opens the prepare-record system table. Nil when
// the engine refuses catalog changes (a replica).
func (s *Server) prepTable() engine.Table {
	s.prepTblOnce.Do(func() {
		if t := s.db.OpenTable(ShardPrepTable); t != nil {
			s.prepTbl = t
			return
		}
		s.prepTbl = s.db.CreateTable(ShardPrepTable)
	})
	return s.prepTbl
}

// parkPrepared moves a transaction into the prepared registry.
func (s *Server) parkPrepared(gid []byte, pt *preparedTxn) {
	s.prepMu.Lock()
	s.prepared[string(gid)] = pt
	s.prepMu.Unlock()
}

// takePrepared removes and returns the parked transaction for gid, or nil.
func (s *Server) takePrepared(gid []byte) *preparedTxn {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	pt, ok := s.prepared[string(gid)]
	if ok {
		delete(s.prepared, string(gid))
	}
	return pt
}

func (s *Server) preparedCount() uint32 {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return uint32(len(s.prepared))
}

// abortPrepared aborts every parked transaction (shutdown path). Their
// durable records survive and re-lock them at the next start.
func (s *Server) abortPrepared() {
	s.prepMu.Lock()
	parked := s.prepared
	s.prepared = make(map[string]*preparedTxn)
	s.prepMu.Unlock()
	for _, pt := range parked {
		pt.txn.Abort()
		s.aborts.Add(1)
		s.releaseSlot(pt.slot)
	}
}

// recordSlotWait bounds the slot-acquisition retry of prepare-record
// bookkeeping transactions. Unlike Begin admission these must not give up
// on the first empty pool: a record that cannot be deleted blocks the
// coordinator's cleanup, and the wait happens on one session's handler
// goroutine only.
const recordSlotWait = time.Second

// recordSlot acquires a worker slot for a record-bookkeeping transaction,
// retrying briefly before surfacing ErrOverloaded.
func (s *Server) recordSlot() (int, error) {
	deadline := time.Now().Add(recordSlotWait)
	for {
		if w, ok := s.acquireSlot(); ok {
			return w, nil
		}
		if time.Now().After(deadline) {
			return 0, engine.ErrOverloaded
		}
		select {
		case <-s.doneCh:
			return 0, engine.ErrShutdown
		case <-time.After(time.Millisecond):
		}
	}
}

// putPrepareRecord persists the write set under gid in its own small
// transaction; the caller's prepared transaction keeps its locks untouched
// (the record key lives in a disjoint system table).
func (s *Server) putPrepareRecord(gid []byte, epoch uint64, ops []prepOp) error {
	tbl := s.prepTable()
	if tbl == nil {
		return engine.ErrReplicaReadOnly
	}
	slot, err := s.recordSlot()
	if err != nil {
		return err
	}
	defer s.releaseSlot(slot)
	rec := encodePrepRecord(epoch, ops)
	txn := s.db.Begin(slot)
	if err := txn.Insert(tbl, gid, rec); err != nil {
		// A coordinator retrying prepare after an indeterminate ack may
		// collide with its own earlier record; overwrite it.
		if !errors.Is(err, engine.ErrDuplicate) {
			txn.Abort()
			return err
		}
		if err := txn.Update(tbl, gid, rec); err != nil {
			txn.Abort()
			return err
		}
	}
	return txn.Commit()
}

// putFencedPrepareRecord is putPrepareRecord behind the coordinator fences:
// a gid inside a range some coordinator has listed belongs to an incarnation
// that coordinator has already given up on (see fencePrepares).
func (s *Server) putFencedPrepareRecord(gid []byte, epoch uint64, ops []prepOp) error {
	s.fenceMu.RLock()
	defer s.fenceMu.RUnlock()
	for _, f := range s.fences {
		if f.contains(gid) {
			return fmt.Errorf("%w: gid %x is older than its coordinator's recovery", engine.ErrAborted, gid)
		}
	}
	return s.putPrepareRecord(gid, epoch, ops)
}

// deletePrepareRecord removes gid's record in its own small transaction.
// Missing records are fine (already cleaned, or never written under
// DurabilityNone crash schedules).
func (s *Server) deletePrepareRecord(gid []byte) error {
	tbl := s.prepTable()
	if tbl == nil {
		return nil
	}
	slot, err := s.recordSlot()
	if err != nil {
		return err
	}
	defer s.releaseSlot(slot)
	txn := s.db.Begin(slot)
	if err := txn.Delete(tbl, gid); err != nil {
		txn.Abort()
		if errors.Is(err, engine.ErrNotFound) {
			return nil
		}
		return err
	}
	return txn.Commit()
}

// replayOps re-applies a prepare record's logical writes idempotently: the
// record may describe work that was never committed (re-establishing its
// locks) or work that committed but crashed before record cleanup (in
// which case every op lands on its own prior result).
func replayOps(s *Server, txn engine.Txn, ops []prepOp) error {
	for _, op := range ops {
		tbl := s.db.OpenTable(op.table)
		if tbl == nil {
			if tbl = s.db.CreateTable(op.table); tbl == nil {
				return engine.ErrReplicaReadOnly
			}
		}
		var err error
		switch op.op {
		case proto.MsgInsert:
			if err = txn.Insert(tbl, op.key, op.value); errors.Is(err, engine.ErrDuplicate) {
				err = txn.Update(tbl, op.key, op.value)
			}
		case proto.MsgUpdate:
			if err = txn.Update(tbl, op.key, op.value); errors.Is(err, engine.ErrNotFound) {
				err = txn.Insert(tbl, op.key, op.value)
			}
		case proto.MsgDelete:
			if err = txn.Delete(tbl, op.key); errors.Is(err, engine.ErrNotFound) {
				err = nil
			}
		default:
			return proto.ErrBadRequest
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverPrepared runs at New, before any connection is accepted: every
// surviving prepare record is replayed into a fresh transaction and parked,
// so the in-doubt write sets hold their locks again and no new writer can
// slip under them. Replays cannot conflict with each other (prepared write
// sets are disjoint by first-updater-wins) and there is no concurrent load
// yet.
//
//ermia:txn-owner prepared registry owns the replayed handle; handleShardDecide commits/aborts it and shutdown's abortPrepared reclaims leftovers
func (s *Server) recoverPrepared() {
	tbl := s.db.OpenTable(ShardPrepTable)
	if tbl == nil {
		return // no records ever written here (or a replica: resolved after promotion)
	}
	type rec struct {
		gid []byte
		ops []prepOp
	}
	var recs []rec
	slot, ok := s.acquireSlot()
	if !ok {
		return
	}
	ro := s.db.BeginReadOnly(slot)
	ro.Scan(tbl, nil, nil, func(k, v []byte) bool {
		if ops, err := decodePrepRecord(v); err == nil {
			recs = append(recs, rec{gid: append([]byte(nil), k...), ops: ops})
		}
		return true
	})
	ro.Abort()
	s.releaseSlot(slot)

	for _, r := range recs {
		slot, ok := s.acquireSlot()
		if !ok {
			return // more records than worker slots; the rest resolve via decideByRecord
		}
		txn := s.db.Begin(slot)
		if err := replayOps(s, txn, r.ops); err != nil {
			// Cannot re-lock (degraded or replica engine); leave the record
			// for the record-replay decide path.
			txn.Abort()
			s.releaseSlot(slot)
			continue
		}
		s.parkPrepared(r.gid, &preparedTxn{txn: txn, slot: slot, epoch: s.epoch.Load()})
	}
}

// decideByRecord resolves a decision for a gid with no parked transaction:
// if a record survives (participant restarted without re-locking, or a
// prior decide failed mid-way), apply the decision through it — one
// transaction that replays the writes (commit only) and deletes the record,
// atomically. Returns whether anything was applied.
func (s *Server) decideByRecord(gid []byte, commit bool) (bool, error) {
	tbl := s.prepTable()
	if tbl == nil {
		return false, nil
	}
	slot, err := s.recordSlot()
	if err != nil {
		return false, err
	}
	defer s.releaseSlot(slot)
	txn := s.db.Begin(slot)
	v, err := txn.Get(tbl, gid)
	if err != nil {
		txn.Abort()
		if errors.Is(err, engine.ErrNotFound) {
			return false, nil // already resolved: idempotent OK
		}
		return false, err
	}
	if commit {
		ops, derr := decodePrepRecord(v)
		if derr != nil {
			txn.Abort()
			return false, derr
		}
		if err := replayOps(s, txn, ops); err != nil {
			txn.Abort()
			return false, err
		}
	}
	if err := txn.Delete(tbl, gid); err != nil {
		txn.Abort()
		return false, err
	}
	if err := txn.Commit(); err != nil {
		return false, err
	}
	return true, nil
}

// applyDecision resolves gid on this server: through the parked transaction
// when there is one, else through a surviving prepare record. applied is
// false when there was nothing left to do (already resolved, or never
// prepared here).
func (s *Server) applyDecision(gid []byte, commit bool) (applied bool, err error) {
	pt := s.takePrepared(gid)
	if pt == nil {
		if applied, err = s.decideByRecord(gid, commit); applied {
			s.shardDecides.Add(1)
		}
		return applied, err
	}
	if commit {
		err = pt.txn.Commit()
	} else {
		pt.txn.Abort()
	}
	s.releaseSlot(pt.slot)
	if !commit || err != nil {
		s.aborts.Add(1)
	}
	if err != nil {
		// The locks died with the failed commit but the record survives;
		// the coordinator's retry resolves through decideByRecord.
		return false, err
	}
	// A failed cleanup refuses the ack, so the coordinator retries; the
	// retry lands in decideByRecord and finishes the cleanup idempotently.
	if err := s.deletePrepareRecord(gid); err != nil {
		return false, err
	}
	s.shardDecides.Add(1)
	return true, nil
}

// gidRange is a half-open byte range [lo, hi) of gids.
type gidRange struct{ lo, hi []byte }

func (r gidRange) contains(gid []byte) bool {
	return bytes.Compare(r.lo, gid) <= 0 && bytes.Compare(gid, r.hi) < 0
}

// fencePrepares makes every later prepare of a gid in r fail. It waits out
// prepares that already passed the check, so a listing taken after it
// returns sees every record the range will ever hold.
func (s *Server) fencePrepares(r gidRange) {
	r = gidRange{lo: append([]byte(nil), r.lo...), hi: append([]byte(nil), r.hi...)}
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	for i, f := range s.fences {
		// One coordinator's successive incarnations fence [id‖0, id‖seq)
		// with a growing seq: keep the widest.
		if bytes.Equal(f.lo, r.lo) {
			if bytes.Compare(f.hi, r.hi) < 0 {
				s.fences[i] = r
			}
			return
		}
	}
	s.fences = append(s.fences, r)
}

// listPrepared returns the prepare-record gids in r, in order. Parked
// transactions hold a worker slot each, so the list is short.
func (s *Server) listPrepared(r gidRange) (gids [][]byte, err error) {
	tbl := s.db.OpenTable(ShardPrepTable)
	if tbl == nil {
		return nil, nil // no record was ever written here
	}
	slot, err := s.recordSlot()
	if err != nil {
		return nil, err
	}
	defer s.releaseSlot(slot)
	txn := s.db.BeginReadOnly(slot)
	defer txn.Abort()
	err = txn.Scan(tbl, r.lo, r.hi, func(k, _ []byte) bool {
		gids = append(gids, append([]byte(nil), k...))
		return true
	})
	return gids, err
}

// handleShardPrepared serves a recovering coordinator: fence the range, then
// list what it holds.
func (s *session) handleShardPrepared(req request, d *proto.Dec) {
	r := gidRange{lo: d.Bytes(), hi: d.Bytes()}
	if d.Err() != nil || len(r.lo) == 0 || bytes.Compare(r.lo, r.hi) >= 0 {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	s.srv.fencePrepares(r)
	gids, err := s.srv.listPrepared(r)
	if err != nil {
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	body := proto.AppendU32(nil, uint32(len(gids)))
	for _, g := range gids {
		body = proto.AppendBytes(body, g)
	}
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}

// handleShardPrepare is phase one: persist the write set, park the
// transaction, ack when durable. Refusals leave the transaction open and
// owned by this session — the coordinator aborts it through the normal
// path.
//
//ermia:txn-owner prepared registry takes the handle from s.txns; handleShardDecide finishes it and shutdown's abortPrepared reclaims leftovers
func (s *session) handleShardPrepare(req request, d *proto.Dec) {
	txnID := d.U64()
	cliEpoch := d.U64()
	mapVersion := d.U64()
	gid := d.Bytes()
	ops := decodePrepOps(d)
	// Decisions this server acked on apply; see MsgShardPrepare.
	type decided struct {
		gid   []byte
		flags byte
	}
	var covered []decided
	for m := d.U32(); m > 0 && d.Err() == nil; m-- {
		covered = append(covered, decided{gid: d.Bytes(), flags: d.U8()})
	}
	if d.Err() != nil || len(gid) == 0 {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	// Same fence as Begin: a deposed primary must never ack a prepare — its
	// record could not survive the failover its clients already observed.
	if cliEpoch > s.srv.epoch.Load() {
		s.reply(req.typ, req.id, proto.StatusStaleEpoch, "", nil)
		return
	}
	if v := s.srv.cfg.ShardMapVersion; v != 0 && mapVersion != v {
		s.reply(req.typ, req.id, proto.StatusShardMoved, "", nil)
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.reply(req.typ, req.id, proto.StatusUnknownTxn, "", nil)
		return
	}
	if ot.readOnly {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "read-only transaction cannot prepare", nil)
		return
	}
	ep := s.srv.epoch.Load()
	// Applied before the record is written, so their log records precede it
	// and the durable ack below covers them. Almost always a no-op: the
	// decision is still in effect unless this server restarted since.
	for _, c := range covered {
		if _, err := s.srv.applyDecision(c.gid, c.flags&proto.ShardDecideCommit != 0); err != nil {
			st, detail := proto.StatusOf(err)
			s.reply(req.typ, req.id, st, detail, nil)
			return
		}
	}
	if err := s.srv.putFencedPrepareRecord(gid, ep, ops); err != nil {
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	// Park: out of the session registry (keeping the worker slot) into the
	// server-global one, where any connection's decide can find it.
	delete(s.txns, txnID)
	s.openTxns.Add(-1)
	s.srv.openTxns.Add(-1)
	s.srv.parkPrepared(gid, &preparedTxn{txn: ot.txn, slot: ot.slot, epoch: ep})
	s.srv.shardPrepares.Add(1)
	s.ackDurable(req, ep, false)
}

// handleShardDecide applies the coordinator's decision. The ack is released
// only after the decision's effects — commit or abort, plus record cleanup
// — are durable, because the coordinator erases its own decision log entry
// on a positive ack and must never need to re-deliver after that. That
// holds for a gid with nothing left to apply too: an earlier delivery may
// have applied it moments ago, its ack lost and its log records not yet
// synced. A coordinator that sets proto.ShardDecideOnApply takes the ack
// before durability and keeps the entry; under SyncRepl the bit is ignored,
// because a promoted replica does not re-lock surviving prepare records, so
// a decision the replica never received could not be re-applied safely.
func (s *session) handleShardDecide(req request, d *proto.Dec) {
	gid := d.Bytes()
	flags := d.U8()
	if d.Err() != nil || len(gid) == 0 {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	commit := flags&proto.ShardDecideCommit != 0
	applied, err := s.srv.applyDecision(gid, commit)
	if err != nil {
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	ep := s.srv.epoch.Load()
	if flags&proto.ShardDecideOnApply != 0 && !s.srv.cfg.SyncRepl {
		if commit && applied {
			s.srv.noteCommit(ep)
		}
		s.reply(req.typ, req.id, proto.StatusOK, "", nil)
		return
	}
	s.ackDurable(req, ep, commit && applied)
}

// handleShardMap serves this server's sharding identity: shard id, map
// version, and the operator-supplied map blob.
func (s *session) handleShardMap(req request) {
	body := proto.AppendU32(nil, s.srv.cfg.ShardID)
	body = proto.AppendU64(body, s.srv.cfg.ShardMapVersion)
	body = proto.AppendBytes(body, s.srv.cfg.ShardMapBlob)
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}
