package core

import (
	"errors"
	"runtime"
	"time"

	"ermia/internal/engine"
	"ermia/internal/index"
	"ermia/internal/mvcc"
	"ermia/internal/txnid"
)

// Txn is an ERMIA transaction. It is single-goroutine; Commit or Abort must
// be called exactly once.
type Txn struct {
	// absent is the version linked behind this transaction's inserts under
	// SSN (see absentPrev). First, so that it keeps the alignment its atomic
	// words need on every platform.
	absent mvcc.Version

	db       *DB
	worker   int
	tid      txnid.TID
	begin    uint64
	ssn      bool // the DB is serializable: SSN certifies this transaction
	readOnly bool
	done     bool

	// SSN priority stamps (§3.6.2): pstamp is η(T), the latest committed
	// predecessor; sstamp is π(T), the earliest committed successor.
	pstamp uint64
	sstamp uint64

	// txnScratch is the read, write and node sets and the private log
	// buffer, on loan from the worker context between begin and finish.
	txnScratch
	// lastWrite indexes the write entry touched by the most recent mutating
	// op. An insert does not always append: re-inserting a key this
	// transaction already wrote coalesces into the existing entry in place,
	// so "the last element of writes" is not a valid way to find it.
	lastWrite int
	opChain   uint64 // offset of the newest overflow/per-op block, or 0

	prof *Profile
}

type writeEntry struct {
	tbl  *Table
	oid  mvcc.OID
	newV *mvcc.Version
	prev *mvcc.Version // overwritten version; nil for a fresh insert
	key  []byte        // logged for inserts so recovery can rebuild the index
	kind uint8         // recInsert, recUpdate, recDeleteKey
	sec  []loggedSecondary
}

// errSealed is installOver's answer to an insert that reached an OID the
// collector (or an aborting insert) has retired; it never leaves the package.
//
//ermia:classify local internal to Txn.Insert, which retries through the index
var errSealed = errors.New("core: OID sealed")

// Begin starts a read-write transaction on the given worker slot: the
// transaction joins the epoch managers, acquires a TID and a begin
// timestamp (the current LSN), and is ready for forward processing (§3.1).
func (db *DB) Begin(worker int) engine.Txn { return db.begin(worker, false) }

// BeginReadOnly starts a transaction that will not write. ERMIA needs no
// special snapshot machinery for it: SI already isolates readers.
func (db *DB) BeginReadOnly(worker int) engine.Txn { return db.begin(worker, true) }

// BeginTxn is Begin returning the concrete type.
func (db *DB) BeginTxn(worker int) *Txn { return db.begin(worker, false) }

func (db *DB) begin(worker int, readOnly bool) *Txn {
	w := worker & (MaxWorkers - 1)
	ws := &db.workers[w]
	if ws.slot == nil {
		ws.slot = db.gcEpoch.Register()
	}
	ws.slot.Enter()
	// Publish the snapshot for the collector's horizon: zero until the stamp
	// is known, so a round that runs in between reclaims nothing. A second
	// transaction opened on a busy slot, against the contract, leaves the
	// older (lower) stamp standing.
	if ws.live++; ws.live == 1 {
		ws.begin.Store(0)
	}
	tid, err := db.tids.Allocate(db.beginStamp)
	if err != nil {
		// 64K slots with far fewer in-flight transactions: exhaustion means
		// leaked transactions, a programming error.
		panic(err)
	}
	db.workerTID[w].Store(uint64(tid))
	begin, _ := db.tids.Begin(tid)
	if ws.live == 1 {
		ws.begin.Store(begin)
	}
	t := &Txn{
		db:       db,
		worker:   w,
		tid:      tid,
		begin:    begin,
		ssn:      db.cfg.Serializable,
		readOnly: readOnly,
		sstamp:   mvcc.Infinity,
	}
	// Take the slot's parked scratch and leave nothing: a second transaction
	// opened on a busy slot, against the contract, gets its own nil arrays.
	t.txnScratch, ws.scratch = ws.scratch, txnScratch{}
	if db.cfg.Profile {
		t.prof = &ws.prof
	}
	return t
}

// clock returns a start time when profiling, else zero.
func (t *Txn) clock() time.Time {
	if t.prof == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *Txn) accIndex(start time.Time) {
	if t.prof != nil {
		t.prof.Index.Add(time.Since(start).Nanoseconds())
	}
}

func (t *Txn) accIndirect(start time.Time) {
	if t.prof != nil {
		t.prof.Indirect.Add(time.Since(start).Nanoseconds())
	}
}

func (t *Txn) accLog(start time.Time) {
	if t.prof != nil {
		t.prof.Log.Add(time.Since(start).Nanoseconds())
	}
}

// visible decides whether version v belongs to t's snapshot. For
// LSN-stamped versions this is a stamp comparison; TID-stamped versions
// chase the owner's context (§3.6.1), waiting out owners that entered
// pre-commit with a stamp inside the snapshot, so snapshots stay
// consistent. The returned cstamp is the version's commit stamp (0 for own
// writes).
func (t *Txn) visible(v *mvcc.Version) (bool, uint64) {
	s := v.CLSN()
	for {
		if !mvcc.IsTID(s) {
			return s < t.begin, s
		}
		owner := mvcc.AsTID(s)
		if owner == t.tid {
			return true, 0
		}
		status, cstamp, ok := t.db.tids.Inquire(owner)
		if !ok {
			// The owner released its TID. A committed owner rewrites every
			// write's stamp during post-commit, strictly before releasing,
			// so a stamp that still carries the TID can only belong to an
			// aborted transaction's unlinked version a concurrent traversal
			// is still holding: invisible.
			s = v.CLSN()
			if mvcc.IsTID(s) && mvcc.AsTID(s) == owner {
				return false, 0
			}
			continue
		}
		switch status {
		case txnid.StatusActive:
			// Its eventual commit stamp will postdate our snapshot.
			return false, 0
		case txnid.StatusCommitting:
			if cstamp >= t.begin {
				return false, 0
			}
			// Entered pre-commit inside our snapshot: wait for the outcome,
			// otherwise our snapshot would be inconsistent.
			runtime.Gosched()
			s = v.CLSN()
		case txnid.StatusCommitted:
			return cstamp < t.begin, cstamp
		case txnid.StatusAborted:
			// Being unlinked; skip it.
			return false, 0
		default:
			s = v.CLSN()
		}
	}
}

// readVisible walks oid's version chain and returns the version in t's
// snapshot, or nil.
//
//ermia:guarded
func (t *Txn) readVisible(arr *mvcc.OIDArray, oid mvcc.OID) (*mvcc.Version, uint64) {
	start := t.clock()
	defer t.accIndirect(start)
	for v := arr.Head(oid); v != nil; v = v.Next() {
		if ok, cstamp := t.visible(v); ok {
			return v, cstamp
		}
	}
	return nil, 0
}

// ssnRead applies SSN's read rules (forward-processing half): record the
// read, raise η(T) with the version's creation stamp, lower π(T) with the
// version's successor stamp, and abort early when the exclusion window
// closes. cstamp is 0 for own writes, which SSN ignores.
func (t *Txn) ssnRead(v *mvcc.Version, cstamp uint64) error {
	if !t.ssn || cstamp == 0 {
		return nil
	}
	// A slot runs one transaction at a time and finish clears every mark, so
	// a mark already set means v is already in this read set.
	if v.MarkReader(t.worker) {
		t.reads = append(t.reads, v)
	}
	if cstamp > t.pstamp {
		t.pstamp = cstamp
	}
	if ss := t.resolveSstamp(v, 0); ss < t.sstamp {
		t.sstamp = ss
	}
	if t.sstamp <= t.pstamp {
		t.db.stats.SerialAborts.Add(1)
		return engine.ErrSerialization
	}
	return nil
}

// resolveSstamp returns v's final successor stamp, resolving a TID tag by
// chasing the overwriter. myCstamp is the caller's commit stamp during
// pre-commit, or 0 during forward processing (when any committed overwriter
// precedes the caller). Overwriters that serialize after the caller, or
// that aborted, contribute Infinity.
func (t *Txn) resolveSstamp(v *mvcc.Version, myCstamp uint64) uint64 {
	for {
		ss := v.Sstamp()
		if !mvcc.IsTID(ss) {
			return ss
		}
		owner := mvcc.AsTID(ss)
		if owner == t.tid {
			return mvcc.Infinity // self edge
		}
		status, cstamp, ok := t.db.tids.Inquire(owner)
		if !ok {
			runtime.Gosched()
			continue // finishing post-commit; the tag is being replaced
		}
		switch status {
		case txnid.StatusActive:
			// Its commit stamp, if it ever gets one, postdates every stamp
			// taken so far, the caller's included.
			return mvcc.Infinity
		case txnid.StatusCommitting:
			if myCstamp != 0 && cstamp > myCstamp {
				return mvcc.Infinity // serializes after me
			}
			runtime.Gosched()
		case txnid.StatusCommitted:
			runtime.Gosched() // final stamp lands during its post-commit
		case txnid.StatusAborted:
			return mvcc.Infinity // not overwritten
		default:
			// An answer this loop does not understand is never "not
			// overwritten": re-read.
			runtime.Gosched()
		}
	}
}

// ssnWrite applies SSN's write rules for a version this transaction has just
// overwritten (its install CAS won). The version is tagged with our TID as
// its successor from now on, not from pre-commit: a reader that reaches its
// own pre-commit must be able to tell "overwritten by a transaction still
// active", whose commit stamp will be later than the reader's, from "not
// overwritten" — and must never take an overwriter that already holds an
// earlier stamp for the latter.
func (t *Txn) ssnWrite(prev *mvcc.Version) error {
	if !t.ssn || prev == nil {
		return nil
	}
	prev.SetSstamp(mvcc.TIDStamp(t.tid))
	if p := prev.Pstamp(); p > t.pstamp {
		t.pstamp = p
	}
	if t.sstamp <= t.pstamp {
		t.db.stats.SerialAborts.Add(1)
		return engine.ErrSerialization
	}
	return nil
}

// addNode tracks an index leaf handle for phantom validation (any
// serializable mode). gap says the transaction relied on a key being absent
// from the leaf (see trackedNode).
func (t *Txn) addNode(h index.Handle[mvcc.OID], gap bool) {
	if !t.ssn {
		return
	}
	// Scans and clustered gets keep landing on the leaf they just visited.
	i := len(t.nodeSet) - 1
	if i < 0 || t.nodeSet[i].h != h {
		i = t.findNode(h)
	}
	if i < 0 {
		t.appendNode(h, gap)
	} else if gap {
		t.nodeSet[i].gap = true
	}
}

// refreshNode replaces a tracked handle that the transaction's own index
// insert superseded. The two handles name the same leaf slot, so the entry
// keeps its place in the node set's hash table.
func (t *Txn) refreshNode(before, after index.Handle[mvcc.OID]) {
	if i := t.findNode(before); i >= 0 {
		t.nodeSet[i].h = after
	}
}

func (t *Txn) table(tbl engine.Table) *Table { return tbl.(*Table) }

// Get implements engine.Txn.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Get(tbl engine.Table, key []byte) ([]byte, error) {
	if t.done {
		return nil, engine.ErrAborted
	}
	tab := t.table(tbl)
	is := t.clock()
	oid, ok, h := tab.idx.GetH(key)
	t.accIndex(is)
	return t.readRecord(tab.arr, oid, ok, h)
}

// readRecord finishes a point read that reached oid (if found) through leaf
// h. Every way of finding no record — no key, nothing on the OID, nothing
// visible, a tombstone — also marks the leaf as a gap: the tombstone carries
// stamps of its own, but only until the collector reclaims it.
//
//ermia:guarded
func (t *Txn) readRecord(arr *mvcc.OIDArray, oid mvcc.OID, found bool, h index.Handle[mvcc.OID]) ([]byte, error) {
	var v *mvcc.Version
	var cstamp uint64
	if found {
		v, cstamp = t.readVisible(arr, oid)
	}
	t.addNode(h, v == nil || v.Tombstone)
	if v == nil {
		return nil, engine.ErrNotFound
	}
	if err := t.ssnRead(v, cstamp); err != nil {
		return nil, err
	}
	if v.Tombstone {
		return nil, engine.ErrNotFound
	}
	return v.Data, nil
}

// Scan implements engine.Txn.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Scan(tbl engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if t.done {
		return engine.ErrAborted
	}
	tab := t.table(tbl)
	var err error
	onLeaf := func(h index.Handle[mvcc.OID]) { t.addNode(h, true) }
	if !t.ssn {
		onLeaf = nil
	}
	is := t.clock()
	tab.idx.Scan(lo, hi, onLeaf, func(key []byte, oid mvcc.OID) bool {
		t.accIndex(is)
		v, cstamp := t.readVisible(tab.arr, oid)
		cont := true
		if v != nil {
			if err = t.ssnRead(v, cstamp); err != nil {
				is = t.clock()
				return false
			}
			if !v.Tombstone {
				cont = fn(key, v.Data)
			}
		}
		is = t.clock()
		return cont
	})
	t.accIndex(is)
	return err
}

// Insert implements engine.Txn: allocate a fresh OID (contention-free),
// publish the version, then insert key → OID into the index (§3.2).
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Insert(tbl engine.Table, key, value []byte) error {
	if t.done {
		return engine.ErrAborted
	}
	if t.readOnly {
		return engine.ErrAborted
	}
	if err := t.db.health.Writable(); err != nil {
		return err
	}
	tab := t.table(tbl)
	absent := t.absentPrev()
	newV := mvcc.NewVersion(value, mvcc.TIDStamp(t.tid), false)
	newV.SetNext(absent)

	vs := t.clock()
	oid := tab.arr.Alloc()
	tab.arr.Install(oid, newV)
	t.accIndirect(vs)

	for {
		is := t.clock()
		existing, inserted, before, after := tab.idx.InsertH(key, oid)
		t.accIndex(is)

		if inserted {
			if t.ssn {
				t.refreshNode(before, after)
			}
			t.recordWrite(writeEntry{tbl: tab, oid: oid, newV: newV, prev: absent, key: cloneKey(key), kind: recInsert})
			if err := t.ssnInsert(after); err != nil {
				return err
			}
			return t.perOpLog()
		}

		// The key exists in the index: a live duplicate, a deleted or dangling
		// record whose OID we can repopulate, or a sealed OID whose key is on
		// its way out. Only the last leaves our provisioned slot in use.
		err := t.installOver(tab, existing, value, false, true, cloneKey(key))
		if err != errSealed {
			// Clear the orphan slot so no TID-stamped version outlives this
			// transaction.
			tab.arr.Install(oid, nil)
			if err == nil {
				err = t.ssnInsert(after)
			}
			return err
		}
		// Nothing can be installed on a sealed OID. Whoever sealed it removes
		// the key next; help, so the retry finds the key absent or rebound.
		t.db.unlink(tab, key, existing)
	}
}

// absentPrev returns what a version this transaction creates on an empty
// chain is linked in front of: under SSN the transaction's absent version
// (one serves all its inserts: they share η(T) and π(T) anyway), else nil.
// It lives in the Txn, so it costs no allocation, and a chain that still
// links it keeps the finished Txn alive until the collector prunes it.
func (t *Txn) absentPrev() *mvcc.Version {
	if !t.ssn {
		return nil
	}
	if !t.absent.Tombstone {
		t.absent.InitAbsent()
		t.absent.SetSstamp(mvcc.TIDStamp(t.tid)) // overwritten from the start: see ssnWrite
	}
	return &t.absent
}

// ssnInsert orders an insert behind every committed transaction that saw its
// key missing: readers publish their commit stamp on the leaf (ssnCommit),
// and the insert, already in the leaf h, takes it as a predecessor — the
// absent key's η(V) — along with the stamp of the delete that made the key
// absent, if the collector has taken the tombstone (DB.reclaim). The
// overwrite rules for the absent version itself ran with the install.
func (t *Txn) ssnInsert(h index.Handle[mvcc.OID]) error {
	if !t.ssn {
		return nil
	}
	if s := max(h.Stamp(), t.db.deleteFloor.Load()); s > t.pstamp {
		t.pstamp = s
	}
	if t.sstamp <= t.pstamp {
		t.db.stats.SerialAborts.Add(1)
		return engine.ErrSerialization
	}
	return nil
}

// Update implements engine.Txn.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Update(tbl engine.Table, key, value []byte) error {
	if t.done {
		return engine.ErrAborted
	}
	if t.readOnly {
		return engine.ErrAborted
	}
	if err := t.db.health.Writable(); err != nil {
		return err
	}
	tab := t.table(tbl)
	is := t.clock()
	oid, ok, h := tab.idx.GetH(key)
	t.accIndex(is)
	t.addNode(h, !ok)
	if !ok {
		return engine.ErrNotFound
	}
	return t.missed(h, t.installOver(tab, oid, value, false, false, nil))
}

// missed marks leaf h as a gap when an update or delete found its record
// gone, and passes err through.
func (t *Txn) missed(h index.Handle[mvcc.OID], err error) error {
	if err == engine.ErrNotFound {
		t.addNode(h, true)
	}
	return err
}

// Delete implements engine.Txn: a tombstone update (§3.2). The tombstone
// carries the key, so that once no snapshot can see the record alive the
// garbage collector can take the key out of the index too (see reclaim).
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) Delete(tbl engine.Table, key []byte) error {
	if t.done {
		return engine.ErrAborted
	}
	if t.readOnly {
		return engine.ErrAborted
	}
	if err := t.db.health.Writable(); err != nil {
		return err
	}
	tab := t.table(tbl)
	is := t.clock()
	oid, ok, h := tab.idx.GetH(key)
	t.accIndex(is)
	t.addNode(h, !ok)
	if !ok {
		return engine.ErrNotFound
	}
	return t.missed(h, t.installOver(tab, oid, cloneKey(key), true, false, nil))
}

// installOver installs a new version at oid's chain head under the
// first-updater-wins rule: an uncommitted head aborts us immediately (the
// early write-write detection the paper credits for minimizing wasted
// work), a committed head newer than our snapshot aborts us, and a racing
// CAS aborts us. asInsert permits writing over a tombstone (reinsert) and
// reports ErrDuplicate instead of overwriting live records; on a sealed OID
// it returns errSealed, and the insert goes back to the index. A tombstone's
// value is its record's key.
//
//ermia:guarded
func (t *Txn) installOver(tab *Table, oid mvcc.OID, value []byte, tombstone, asInsert bool, insKey []byte) error {
	start := t.clock()
	defer t.accIndirect(start)
	for {
		head := tab.arr.Head(oid)
		if head == nil {
			if !asInsert {
				return engine.ErrNotFound
			}
			if tab.arr.Sealed(oid) {
				return errSealed
			}
			// Empty but not sealed: a dangling OID, as aborted inserts left
			// behind before Abort sealed theirs. Claim it.
			absent := t.absentPrev()
			newV := mvcc.NewVersion(value, mvcc.TIDStamp(t.tid), tombstone)
			newV.SetNext(absent)
			if !tab.arr.CASHead(oid, nil, newV) {
				continue // racing claimer; re-examine
			}
			t.recordWrite(writeEntry{tbl: tab, oid: oid, newV: newV, prev: absent, key: insKey, kind: recInsert})
			return t.perOpLog()
		}

		s := head.CLSN() // becomes head's commit stamp below
		if mvcc.IsTID(s) {
			owner := mvcc.AsTID(s)
			if owner == t.tid {
				if asInsert && !head.Tombstone {
					return engine.ErrDuplicate // inserting over our own live write
				}
				// Overwriting our own in-flight write: replace it in place.
				newV := mvcc.NewVersion(value, mvcc.TIDStamp(t.tid), tombstone)
				newV.SetNext(head.Next())
				if !tab.arr.CASHead(oid, head, newV) {
					continue
				}
				t.replaceWrite(tab, oid, newV, tombstone, asInsert, insKey)
				return t.perOpLog()
			}
			status, cstamp, ok := t.db.tids.Inquire(owner)
			if !ok {
				// The owner released its TID. If the head still carries the
				// TID, the owner aborted and this is an orphan a concurrent
				// unlink missed (see Txn.visible): help unlink it rather
				// than spin.
				if s2 := head.CLSN(); mvcc.IsTID(s2) && mvcc.AsTID(s2) == owner {
					tab.arr.CASHead(oid, head, head.Next())
				}
				continue
			}
			switch status {
			case txnid.StatusActive, txnid.StatusCommitting:
				// First-updater-wins: the head is another transaction's
				// uncommitted write, our update loses right now.
				t.db.stats.WWAborts.Add(1)
				t.db.stats.WWInFlight.Add(1)
				return engine.ErrWriteConflict
			case txnid.StatusCommitted:
				if cstamp >= t.begin {
					t.db.stats.WWAborts.Add(1)
					t.db.stats.WWNewer.Add(1)
					return engine.ErrWriteConflict
				}
				// Committed inside our snapshot, mid post-commit: treat the
				// head as the committed version and fall through.
				s = cstamp
			case txnid.StatusAborted:
				runtime.Gosched() // abort cleanup will unlink it
				continue
			default:
				continue
			}
		} else if s >= t.begin {
			// A newer committed version exists: updating would be a lost
			// update.
			t.db.stats.WWAborts.Add(1)
			t.db.stats.WWNewer.Add(1)
			return engine.ErrWriteConflict
		}

		if head.Tombstone {
			if !asInsert {
				// Reporting a delete is reading it: the caller may act on the
				// absence, and a re-insert over this tombstone must see that.
				if err := t.ssnRead(head, s); err != nil {
					return err
				}
				return engine.ErrNotFound
			}
		} else if asInsert {
			return engine.ErrDuplicate
		}

		newV := mvcc.NewVersion(value, mvcc.TIDStamp(t.tid), tombstone)
		newV.SetNext(head)
		if !tab.arr.CASHead(oid, head, newV) {
			if asInsert && tab.arr.Sealed(oid) {
				return errSealed // the collector retired the tombstone first
			}
			// Another writer installed first: write-write conflict.
			t.db.stats.WWAborts.Add(1)
			t.db.stats.WWCASRace.Add(1)
			return engine.ErrWriteConflict
		}
		kind := recUpdate
		if tombstone {
			kind = recDeleteKey
		}
		if asInsert {
			kind = recInsert
		}
		t.recordWrite(writeEntry{tbl: tab, oid: oid, newV: newV, prev: head, key: insKey, kind: kind})
		if err := t.ssnWrite(head); err != nil {
			return err
		}
		return t.perOpLog()
	}
}

// recordWrite appends a write-set entry.
func (t *Txn) recordWrite(w writeEntry) {
	t.writes = append(t.writes, w)
	t.lastWrite = len(t.writes) - 1
}

// replaceWrite swaps the write-set entry for (table, oid) after an in-place
// self-overwrite, preserving the original prev and insert key. OIDs are
// per-table, so the table must participate in the match: matching on OID
// alone once clobbered a different table's entry, orphaning that record's
// TID-stamped head and corrupting its log record.
func (t *Txn) replaceWrite(tab *Table, oid mvcc.OID, newV *mvcc.Version, tombstone, asInsert bool, insKey []byte) {
	for i := range t.writes {
		w := &t.writes[i]
		if w.tbl == tab && w.oid == oid {
			w.newV = newV
			switch {
			case asInsert && !tombstone:
				// Reinsert over our own tombstone. The entry must log as an
				// insert: an update record carries neither the key nor the
				// secondary bindings InsertWithSecondary is about to attach,
				// so leaving it as recUpdate/recDeleteKey would recover the
				// value but silently drop the new secondary keys.
				w.kind = recInsert
				w.key = insKey
			case w.kind != recInsert:
				if tombstone {
					w.kind = recDeleteKey
				} else {
					w.kind = recUpdate
				}
			}
			t.lastWrite = i
			return
		}
	}
}

func cloneKey(k []byte) []byte {
	out := make([]byte, len(k))
	copy(out, k)
	return out
}

// perOpLog, in LogPerOperation mode, ships the newest write's log record to
// the central buffer immediately, emulating traditional per-operation WAL
// (the Figure 10 comparison). The blocks chain backward so recovery applies
// them only if the final commit block lands.
func (t *Txn) perOpLog() error {
	if !t.db.cfg.LogPerOperation || len(t.writes) == 0 {
		return nil
	}
	t.logBuf = t.encodeWrite(t.logBuf[:0], &t.writes[len(t.writes)-1])
	return t.spillOverflow()
}

// encodeWrite appends w's log record to buf.
func (t *Txn) encodeWrite(buf []byte, w *writeEntry) []byte {
	switch w.kind {
	case recInsert:
		if w.newV.Tombstone {
			// The transaction inserted and then deleted the record. If the
			// entry began by overwriting a live committed version (a
			// delete-reinsert-delete chain), the net effect is that delete;
			// otherwise the net effect on recovered state is nothing.
			if w.prev != nil && !w.prev.Tombstone {
				return appendDeleteKey(buf, w.tbl.id, uint64(w.oid), w.newV.Data)
			}
			return buf
		}
		if len(w.sec) > 0 {
			return appendInsertSec(buf, w.tbl.id, uint64(w.oid), w.key, w.newV.Data, w.sec)
		}
		return appendInsert(buf, w.tbl.id, uint64(w.oid), w.key, w.newV.Data)
	case recDeleteKey:
		return appendDeleteKey(buf, w.tbl.id, uint64(w.oid), w.newV.Data)
	default:
		return appendUpdate(buf, w.tbl.id, uint64(w.oid), w.newV.Data)
	}
}
