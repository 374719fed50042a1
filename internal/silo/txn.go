package silo

import (
	"runtime"
	"sort"

	"ermia/internal/engine"
	"ermia/internal/index"
)

// Txn is a Silo transaction: footprints stay local until pre-commit, when
// the three-phase protocol validates and installs them — the lazy
// coordination whose cost on long readers the ERMIA paper measures.
type Txn struct {
	db       *DB
	worker   int
	readOnly bool
	roEpoch  uint64 // snapshot epoch for read-only transactions
	done     bool

	reads    []readEntry
	writes   []writeEntry
	writeIdx map[*Record]int // populated once the write set grows
	nodeSet  []index.Handle[*Record]
}

type readEntry struct {
	rec  *Record
	word uint64 // TID word observed at read time
}

type writeEntry struct {
	rec    *Record
	tbl    *Table
	key    []byte
	data   []byte
	absent bool // delete
	insert bool
}

// Begin implements engine.DB.
func (db *DB) Begin(worker int) engine.Txn { return db.begin(worker, false) }

// BeginReadOnly implements engine.DB: with snapshots enabled, the
// transaction reads the last completed epoch's copy-on-write snapshot and
// can never abort; otherwise it is a plain OCC transaction.
func (db *DB) BeginReadOnly(worker int) engine.Txn { return db.begin(worker, true) }

// BeginTxn is Begin returning the concrete type.
func (db *DB) BeginTxn(worker int) *Txn { return db.begin(worker, false) }

func (db *DB) begin(worker int, readOnly bool) *Txn {
	t := &Txn{db: db, worker: worker & (MaxWorkers - 1)}
	if readOnly && db.cfg.Snapshots {
		t.readOnly = true
		// Pin the snapshot so chain trimming keeps our versions alive for
		// the duration of the transaction; re-pin if the floor raced past.
		for {
			e := db.epoch.Load() - 1
			db.roEpoch[t.worker].Store(e + 1)
			if db.snapFloor.Load() <= e {
				t.roEpoch = e
				break
			}
		}
	}
	return t
}

func (t *Txn) table(tbl engine.Table) *Table { return tbl.(*Table) }

// findWrite locates the write-set entry for rec, if any.
func (t *Txn) findWrite(rec *Record) int {
	if t.writeIdx != nil {
		if i, ok := t.writeIdx[rec]; ok {
			return i
		}
		return -1
	}
	for i := range t.writes {
		if t.writes[i].rec == rec {
			return i
		}
	}
	return -1
}

func (t *Txn) addWrite(w writeEntry) {
	t.writes = append(t.writes, w)
	if t.writeIdx != nil {
		t.writeIdx[w.rec] = len(t.writes) - 1
	} else if len(t.writes) > 16 {
		t.writeIdx = make(map[*Record]int, 32)
		for i := range t.writes {
			t.writeIdx[t.writes[i].rec] = i
		}
	}
}

func (t *Txn) addRead(rec *Record, word uint64) {
	if !t.readOnly {
		t.reads = append(t.reads, readEntry{rec, word})
	}
}

func (t *Txn) addNode(h index.Handle[*Record]) {
	if t.readOnly {
		return
	}
	for i := range t.nodeSet {
		if t.nodeSet[i] == h {
			return
		}
	}
	t.nodeSet = append(t.nodeSet, h)
}

// snapshotRead serves a read-only transaction from the copy-on-write
// snapshot chain: the newest version created at or before roEpoch.
func (t *Txn) snapshotRead(rec *Record) ([]byte, bool) {
	d, w := stableRead(rec)
	if tidEpoch(wordTID(w)) <= t.roEpoch {
		return d, !wordAbsent(w)
	}
	for sv := rec.snap.Load(); sv != nil; sv = sv.prev.Load() {
		if sv.epoch <= t.roEpoch {
			return sv.data, !sv.absent
		}
	}
	return nil, false // record did not exist at the snapshot epoch
}

// Get implements engine.Txn.
func (t *Txn) Get(tbl engine.Table, key []byte) ([]byte, error) {
	if t.done {
		return nil, engine.ErrAborted
	}
	tab := t.table(tbl)
	rec, ok, h := tab.idx.GetH(key)
	t.addNode(h)
	if !ok {
		return nil, engine.ErrNotFound
	}
	if t.readOnly {
		d, live := t.snapshotRead(rec)
		if !live {
			return nil, engine.ErrNotFound
		}
		return d, nil
	}
	if i := t.findWrite(rec); i >= 0 {
		w := &t.writes[i]
		if w.absent {
			return nil, engine.ErrNotFound
		}
		return w.data, nil
	}
	d, word := stableRead(rec)
	t.addRead(rec, word)
	if wordAbsent(word) {
		return nil, engine.ErrNotFound
	}
	return d, nil
}

// Scan implements engine.Txn.
func (t *Txn) Scan(tbl engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if t.done {
		return engine.ErrAborted
	}
	tab := t.table(tbl)
	onLeaf := func(h index.Handle[*Record]) { t.addNode(h) }
	if t.readOnly {
		onLeaf = nil
	}
	tab.idx.Scan(lo, hi, onLeaf, func(key []byte, rec *Record) bool {
		if t.readOnly {
			d, live := t.snapshotRead(rec)
			if !live {
				return true
			}
			return fn(key, d)
		}
		if i := t.findWrite(rec); i >= 0 {
			w := &t.writes[i]
			if w.absent {
				return true
			}
			return fn(key, w.data)
		}
		d, word := stableRead(rec)
		t.addRead(rec, word)
		if wordAbsent(word) {
			return true
		}
		return fn(key, d)
	})
	return nil
}

// Insert implements engine.Txn. A fresh record enters the index marked
// absent; a concurrent inserter of the same key lands on the same record
// and the read-set validation decides the race.
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
	fresh := t.db.newRecord()
	fresh.word.Store(makeWord(0, true)) // absent until our commit installs

	rec, inserted, before, after := tab.idx.InsertH(key, fresh)
	if inserted {
		t.refreshNode(before, after)
		t.addRead(fresh, fresh.word.Load())
		t.addWrite(writeEntry{rec: fresh, tbl: tab, key: cloneBytes(key), data: cloneBytes(value), insert: true})
		return nil
	}
	// Key already indexed: live duplicate or absent record to repopulate.
	if i := t.findWrite(rec); i >= 0 {
		if !t.writes[i].absent {
			return engine.ErrDuplicate
		}
		t.writes[i].data = cloneBytes(value)
		t.writes[i].absent = false
		return nil
	}
	_, word := stableRead(rec)
	t.addRead(rec, word)
	if !wordAbsent(word) {
		return engine.ErrDuplicate
	}
	t.addWrite(writeEntry{rec: rec, tbl: tab, key: cloneBytes(key), data: cloneBytes(value), insert: true})
	return nil
}

// Update implements engine.Txn. The new value is buffered; conflicts
// surface only at commit-time validation (Silo's lazy coordination).
func (t *Txn) Update(tbl engine.Table, key, value []byte) error {
	return t.write(tbl, key, value, false)
}

// Delete implements engine.Txn: installs an absent marker at commit.
func (t *Txn) Delete(tbl engine.Table, key []byte) error {
	return t.write(tbl, key, nil, true)
}

func (t *Txn) write(tbl engine.Table, key, value []byte, absent bool) error {
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
	rec, ok, h := tab.idx.GetH(key)
	t.addNode(h)
	if !ok {
		return engine.ErrNotFound
	}
	if i := t.findWrite(rec); i >= 0 {
		if t.writes[i].absent && !absent {
			return engine.ErrNotFound
		}
		t.writes[i].data = cloneBytes(value)
		t.writes[i].absent = absent
		return nil
	}
	_, word := stableRead(rec)
	t.addRead(rec, word)
	if wordAbsent(word) {
		return engine.ErrNotFound
	}
	t.addWrite(writeEntry{rec: rec, tbl: tab, key: cloneBytes(key), data: cloneBytes(value), absent: absent})
	return nil
}

func (t *Txn) refreshNode(before, after index.Handle[*Record]) {
	for i := range t.nodeSet {
		if t.nodeSet[i] == before {
			t.nodeSet[i] = after
		}
	}
}

// Commit runs Silo's three-phase protocol: lock the write set in global
// record order, compute the commit TID, validate the read and node sets,
// then install new versions and release the locks.
func (t *Txn) Commit() error {
	if t.done {
		return engine.ErrAborted
	}
	if t.readOnly || len(t.writes) == 0 {
		// Snapshot transactions never validate (and never abort). A pure
		// OCC reader must still validate its read set to be serializable.
		if !t.readOnly {
			if err := t.validate(nil); err != nil {
				t.abortInternal()
				return err
			}
		}
		t.finish(true)
		return nil
	}

	// A degraded DB refuses to install new versions: the value log cannot
	// accept their entries, and read service must stay consistent with what
	// Reattach will make durable.
	if err := t.db.health.Writable(); err != nil {
		t.abortInternal()
		return err
	}

	// Phase 1: lock the write set in record-id order (deadlock freedom).
	sort.Slice(t.writes, func(i, j int) bool { return t.writes[i].rec.id < t.writes[j].rec.id })
	if t.writeIdx != nil {
		for i := range t.writes {
			t.writeIdx[t.writes[i].rec] = i
		}
	}
	locked := 0
	for i := range t.writes {
		if !lockRecord(t.writes[i].rec) {
			// Bounded spin failed: likely conflict; abort.
			t.db.stats.LockConflicts.Add(1)
			t.unlock(locked)
			t.abortInternal()
			return engine.ErrWriteConflict
		}
		locked++
	}

	// Commit TID: greater than every read/write TID and the worker's last,
	// in the current epoch.
	epoch := t.db.epoch.Load()
	ws := &t.db.workers[t.worker]
	seq := ws.lastTID & seqMask
	for i := range t.reads {
		if tid := wordTID(t.reads[i].word); tidEpoch(tid) == epoch && tid&seqMask > seq {
			seq = tid & seqMask
		}
	}
	for i := range t.writes {
		if tid := wordTID(t.writes[i].rec.word.Load()); tidEpoch(tid) == epoch && tid&seqMask > seq {
			seq = tid & seqMask
		}
	}
	commitTID := epoch<<seqBits | (seq + 1)
	ws.lastTID = commitTID

	// Phase 2: validate read set and node set.
	if err := t.validate(t.writes); err != nil {
		t.unlock(locked)
		t.abortInternal()
		return err
	}

	// Phase 3: install, preserving snapshot versions, and log.
	snapshots := t.db.cfg.Snapshots
	for i := range t.writes {
		w := &t.writes[i]
		rec := w.rec
		if snapshots {
			pushSnapshot(rec, epoch, t.db.snapFloor.Load())
		}
		if w.absent {
			rec.data.Store(nil)
		} else {
			d := w.data
			rec.data.Store(&d)
		}
		rec.word.Store(makeWord(commitTID, w.absent)) // releases the lock
	}
	logBuf := encodeEntry(ws.logBuf[:0], commitTID, t.writes)
	t.db.appendLog(logBuf)
	ws.logBuf = logBuf[:0]
	t.finish(true)
	return nil
}

// pushSnapshot preserves rec's current committed version for read-only
// transactions before an overwrite — Silo's heavyweight copy-on-write
// snapshot maintenance. The version is preserved only when it was created
// before the current epoch (newer ones can never be a snapshot answer);
// entries older than floor (the oldest epoch any pinned snapshot reader
// still needs) are trimmed.
func pushSnapshot(rec *Record, epoch, floor uint64) {
	w := rec.word.Load() // locked by us: stable
	oldEpoch := tidEpoch(wordTID(w))
	if oldEpoch >= epoch {
		return // same-epoch overwrite: invisible to any snapshot reader
	}
	var data []byte
	if d := rec.data.Load(); d != nil {
		data = *d
	}
	sv := &snapVersion{epoch: oldEpoch, data: data, absent: wordAbsent(w)}
	sv.prev.Store(rec.snap.Load())
	// Trim: keep the first version at or below the floor, drop the rest.
	for p := sv; p != nil; p = p.prev.Load() {
		if p.epoch <= floor && p.prev.Load() != nil {
			p.prev.Store(nil)
			break
		}
	}
	rec.snap.Store(sv)
}

// validate is phase 2: every read's TID word must be unchanged and
// unlocked (unless we hold the lock), and every scanned index leaf must be
// unchanged except by our own inserts.
func (t *Txn) validate(writes []writeEntry) error {
	for i := range t.reads {
		r := &t.reads[i]
		cur := r.rec.word.Load()
		if wordLocked(cur) {
			if t.findWrite(r.rec) < 0 {
				t.db.stats.ReadValidations.Add(1)
				return engine.ErrReadValidation
			}
			cur &^= lockBit
		}
		if cur != r.word&^uint64(lockBit) {
			t.db.stats.ReadValidations.Add(1)
			return engine.ErrReadValidation
		}
	}
	for _, h := range t.nodeSet {
		if !h.Valid() {
			t.db.stats.PhantomAborts.Add(1)
			return engine.ErrPhantom
		}
	}
	return nil
}

// lockRecord acquires the record's commit lock with a bounded spin.
func lockRecord(r *Record) bool {
	for spins := 0; spins < 4096; spins++ {
		w := r.word.Load()
		if !wordLocked(w) {
			if r.word.CompareAndSwap(w, w|lockBit) {
				return true
			}
			continue
		}
		runtime.Gosched()
	}
	return false
}

func (t *Txn) unlock(n int) {
	for i := 0; i < n; i++ {
		rec := t.writes[i].rec
		rec.word.Store(rec.word.Load() &^ uint64(lockBit))
	}
}

// Abort implements engine.Txn. Silo buffers everything locally, so abort
// only discards state.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.abortInternal()
}

func (t *Txn) abortInternal() {
	t.finish(false)
}

func (t *Txn) finish(committed bool) {
	if t.readOnly {
		t.db.roEpoch[t.worker].Store(0)
	}
	ws := &t.db.workers[t.worker]
	if committed {
		ws.commits.Add(1)
		t.db.stats.Commits.Add(1)
	} else {
		ws.aborts.Add(1)
		t.db.stats.Aborts.Add(1)
	}
	t.done = true
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

var _ engine.Txn = (*Txn)(nil)
