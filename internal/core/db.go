// Package core implements ERMIA, the paper's primary contribution: a
// memory-optimized transaction processing engine built around latch-free
// indirection arrays, epoch-based resource management, and an extremely
// efficient centralized log manager (§3).
//
// Transactions run under snapshot isolation; when the DB is configured as
// serializable, the Serial Safety Net (SSN) certifier is overlaid on SI
// exactly as §3.6 describes, with Silo-style index node-set validation for
// phantom protection. Commit acquires a totally ordered commit timestamp
// with a single fetch-and-add in the log manager; post-commit replaces TID
// stamps in the write set with the commit LSN so later readers check
// visibility without chasing the owner's context.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/epoch"
	"ermia/internal/index"
	"ermia/internal/mvcc"
	"ermia/internal/txnid"
	"ermia/internal/wal"
)

// MaxWorkers bounds the number of worker slots; it matches the per-version
// reader bitmap capacity SSN relies on.
const MaxWorkers = mvcc.MaxReaders

// Config controls a DB instance.
type Config struct {
	// WAL configures the log manager.
	WAL wal.Config
	// Serializable overlays the SSN certifier on snapshot isolation
	// (ERMIA-SSN). Off, the engine runs plain SI (ERMIA-SI).
	Serializable bool
	// LogPerOperation emulates traditional WAL: every update operation
	// makes its own round trip to the centralized log buffer instead of
	// one reservation per transaction (the Figure 10 ablation).
	LogPerOperation bool
	// GCInterval is how often the background garbage collector drains the
	// workers' garbage lists. Zero disables the background collector; call
	// RunGC manually.
	GCInterval time.Duration
	// Profile enables per-worker cycle accounting by component (the
	// Figure 11 breakdown). Costs two clock reads per instrumented section.
	Profile bool
}

// Table is one named table: a primary index mapping keys to OIDs plus the
// latch-free indirection array holding version chains.
type Table struct {
	name string
	id   uint32
	idx  *index.Tree[mvcc.OID]
	arr  *mvcc.OIDArray
}

// Name implements engine.Table.
func (t *Table) Name() string { return t.name }

// Len returns the number of keys in the table's primary index.
func (t *Table) Len() int { return t.idx.Len() }

// DB is an ERMIA engine instance.
type DB struct {
	cfg Config
	// log is an atomic pointer because a replica runs without a log manager
	// (nil) until promotion installs one; everything in the write path loads
	// it through logMgr. On a primary it is set once at Open/Recover and
	// never changes (Reattach heals the manager in place).
	log  atomic.Pointer[wal.Manager]
	tids *txnid.Manager

	// Replica mode (see replica.go): replica engines replay the primary's
	// shipped log instead of writing their own. watermark is the replay
	// horizon — the offset just past the last fully applied commit block —
	// and doubles as the begin timestamp of replica read transactions, which
	// pins their snapshots to fully applied state.
	replica   atomic.Bool
	watermark atomic.Uint64

	// gcEpoch tracks transaction-scale quiescence for version reclamation;
	// every transaction joins it between begin and end (§3.4). Worker
	// slots are registered lazily, one per worker id.
	gcEpoch *epoch.Manager

	mu          sync.Mutex
	tables      map[string]*Table
	tableIDs    map[uint32]*Table
	nextTID     uint32
	secondaries *secondaryCatalog

	// workerTID maps worker slot -> current transaction TID (0 if idle),
	// letting a committing overwriter resolve the reader bits on a version
	// to live transaction contexts (parallel SSN).
	workerTID [MaxWorkers]atomic.Uint64

	// workers are the per-slot transaction contexts (see worker.go).
	workers [MaxWorkers]workerState

	// Garbage collection (see RunGC): applied is the appliers' counterpart of
	// a worker's garbage list. gcMu serializes rounds and guards gcQueue, the
	// entries earlier rounds kept. ckptPin is a running checkpoint's hold on
	// the horizon, published like a worker's begin stamp.
	applied garbageList
	ckptPin atomic.Uint64
	gcMu    sync.Mutex
	gcQueue []garbageEntry
	// deleteFloor is the largest commit stamp among the deletes whose
	// tombstones the collector has reclaimed: what a transaction that finds
	// such a key absent has read, as far as SSN goes (see reclaim).
	deleteFloor atomic.Uint64

	// Checkpointing (see checkpoint.go). lastCkpt identifies the newest
	// published checkpoint; ckptMu serializes checkpointers so generation
	// numbers stay monotone and blob cleanup never races a concurrent scan.
	lastCkpt atomic.Pointer[CheckpointInfo]
	ckptMu   sync.Mutex

	gcStop    chan struct{}
	gcDone    chan struct{}
	closeOnce sync.Once
	closeErr  error

	// Fault containment (see health.go). logGate is read-locked by every
	// log-writing window so Reattach can take it exclusively and rebuild the
	// log with no reservation in flight.
	health  engine.Health
	logGate sync.RWMutex

	stats DBStats
}

// Profile is the per-worker cycle breakdown of Figure 11, in nanoseconds.
type Profile struct {
	Index    atomic.Int64 // tree probes, inserts, scans
	Indirect atomic.Int64 // indirection array + version chain work
	Log      atomic.Int64 // log reservation and copying
	Other    atomic.Int64 // everything else inside transactions
}

// DBStats aggregates engine counters.
type DBStats struct {
	Commits        atomic.Uint64
	Aborts         atomic.Uint64
	SerialAborts   atomic.Uint64 // SSN exclusion-window aborts
	WWAborts       atomic.Uint64 // first-updater-wins aborts (total)
	WWInFlight     atomic.Uint64 // ...lost to an uncommitted head version
	WWNewer        atomic.Uint64 // ...head committed after our snapshot
	WWCASRace      atomic.Uint64 // ...lost the install CAS
	PhantomAborts  atomic.Uint64
	VersionsPruned atomic.Uint64
	GCRuns         atomic.Uint64
	GCPending      atomic.Uint64 // overwrites the newest RunGC left queued above its horizon
	// IndexEntriesReclaimed counts keys taken out of a primary index: deleted
	// records once no snapshot could see them alive, and aborted inserts.
	IndexEntriesReclaimed atomic.Uint64
}

// Open creates a DB. Pass a wal.RecoverResult-driven flow via Recover to
// restore existing state instead.
func Open(cfg Config) (*DB, error) {
	log, err := wal.Open(cfg.WAL, nil)
	if err != nil {
		return nil, err
	}
	db := newDB(cfg, log)
	db.startGC()
	return db, nil
}

func newDB(cfg Config, log *wal.Manager) *DB {
	db := &DB{
		cfg:         cfg,
		tids:        txnid.NewManager(),
		gcEpoch:     epoch.NewManager(0),
		tables:      make(map[string]*Table),
		tableIDs:    make(map[uint32]*Table),
		nextTID:     1,
		secondaries: newSecondaryCatalog(),
	}
	if log != nil {
		db.log.Store(log)
	}
	db.ckptPin.Store(stampIdle)
	for i := range db.workers {
		db.workers[i].begin.Store(stampIdle)
	}
	return db
}

// logMgr returns the live log manager, or nil on a replica that has not
// been promoted.
func (db *DB) logMgr() *wal.Manager { return db.log.Load() }

// beginStamp is the begin-timestamp clock: the log's current offset on a
// primary (every commit block reserved afterwards gets a later offset), and
// the replay watermark on a replica (every fully applied commit block has an
// earlier offset, so the snapshot never sees a partially applied
// transaction).
func (db *DB) beginStamp() uint64 {
	if db.replica.Load() {
		return db.watermark.Load()
	}
	return db.logMgr().CurrentOffset()
}

func (db *DB) startGC() {
	if db.cfg.GCInterval <= 0 {
		return
	}
	db.gcStop = make(chan struct{})
	db.gcDone = make(chan struct{})
	go func() {
		defer close(db.gcDone)
		t := time.NewTicker(db.cfg.GCInterval)
		defer t.Stop()
		for {
			select {
			case <-db.gcStop:
				return
			case <-t.C:
				db.RunGC()
			}
		}
	}()
}

// Serializable reports whether the SSN certifier is active.
func (db *DB) Serializable() bool { return db.cfg.Serializable }

// ReadOnlyCommitCannotFail implements engine.ReadOnlyCommitter: only the SSN
// certifier validates a transaction that wrote nothing, and BeginReadOnly
// refuses writes.
func (db *DB) ReadOnlyCommitCannotFail() bool { return !db.cfg.Serializable }

// Log exposes the log manager (for durability waits and stats). It is nil
// on a replica that has not been promoted; DurableOffset abstracts over the
// difference.
func (db *DB) Log() *wal.Manager { return db.log.Load() }

// DurableOffset is the engine's durability horizon: the log's durable offset
// on a primary, the replay watermark on a replica (everything below it was
// durable on the primary before it was shipped).
func (db *DB) DurableOffset() uint64 {
	if log := db.logMgr(); log != nil {
		return log.DurableOffset()
	}
	return db.watermark.Load()
}

// Watermark returns the replay watermark: the offset just past the last
// fully applied commit block. Zero on a primary.
func (db *DB) Watermark() uint64 { return db.watermark.Load() }

// PublishWatermark advances the replay watermark after a block has been
// fully applied. Called only by the replica applier goroutine. It never
// regresses: a replica seeded from a checkpoint starts its stream at the
// containing segment's start, and the catch-up blocks below the checkpoint
// begin offset must not drag the read horizon back below the seeded state.
func (db *DB) PublishWatermark(off uint64) {
	if off > db.watermark.Load() {
		db.watermark.Store(off)
	}
}

// Stats returns the engine counters.
func (db *DB) Stats() *DBStats { return &db.stats }

// WorkerProfile returns worker w's cycle breakdown (Figure 11).
func (db *DB) WorkerProfile(w int) *Profile { return &db.workers[w&(MaxWorkers-1)].prof }

// CreateTable makes the named table, logging its creation so recovery can
// rebuild the catalog. Creating an existing table returns it.
func (db *DB) CreateTable(name string) engine.Table {
	if db.replica.Load() {
		// Catalog changes are writes; they must happen on the primary and
		// arrive here through the shipped log. Returning a nil interface
		// (not a typed-nil *Table) lets callers detect the refusal.
		if t := db.OpenTable(name); t != nil {
			return t
		}
		return nil
	}
	db.mu.Lock()
	if t, ok := db.tables[name]; ok {
		db.mu.Unlock()
		return t
	}
	t := &Table{name: name, id: db.nextTID, idx: index.New[mvcc.OID](), arr: mvcc.NewOIDArray()}
	db.nextTID++
	db.tables[name] = t
	db.tableIDs[t.id] = t
	db.mu.Unlock()

	// Log the catalog change in its own commit block.
	rec := encodeCreateTable(t.id, name)
	db.logGate.RLock()
	res, err := db.logMgr().Reserve(len(rec), wal.BlockCommit)
	if err == nil {
		res.Append(rec)
		res.Commit()
	} else {
		db.health.Note(err)
	}
	db.logGate.RUnlock()
	return t
}

// OpenTable returns the named table, or nil.
func (db *DB) OpenTable(name string) engine.Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t
	}
	return nil
}

// createTableRecovered rebuilds a table during recovery without re-logging.
func (db *DB) createTableRecovered(id uint32, name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tableIDs[id]; ok {
		return t
	}
	t := &Table{name: name, id: id, idx: index.New[mvcc.OID](), arr: mvcc.NewOIDArray()}
	db.tables[name] = t
	db.tableIDs[id] = t
	if id >= db.nextTID {
		db.nextTID = id + 1
	}
	return t
}

func (db *DB) tableByID(id uint32) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.tableIDs[id]
}

// allTables returns all tables, for checkpointing.
func (db *DB) allTables() []*Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	return out
}

// horizon returns the collector's reclamation horizon: the oldest snapshot
// any open transaction or running checkpoint holds, and at most the
// begin-stamp clock. Versions overwritten, and records deleted, below it can
// no longer be seen by any snapshot. The clock is read first: a transaction
// this pass finds idle publishes its zero and reads its own stamp after that,
// so its snapshot is no older than the value read here.
func (db *DB) horizon() uint64 {
	h := db.beginStamp()
	if b := db.ckptPin.Load(); b < h {
		h = b
	}
	for i := range db.workers {
		if b := db.workers[i].begin.Load(); b < h {
			h = b // a zero stamp (still initializing) blocks GC entirely
		}
	}
	return h
}

// RunGC performs one garbage collection round: it drains the garbage lists
// that commits and appliers fill, prunes the chain of every entry whose
// version committed below the horizon (the oldest active snapshot) down to
// the one version the horizon still sees, reclaims the record if that
// version is a tombstone, and keeps the other entries for the next round — so
// its cost follows the write rate, not the database size. It returns the
// number of versions unlinked.
//
//ermia:guard-entry the GC thread is the reclaimer side of the protocol: Advance/TryReclaim bracket the round, and a pruned version stays allocated until every slot that could have observed it has exited
func (db *DB) RunGC() int {
	horizon := db.horizon()
	db.gcEpoch.Advance()
	db.gcMu.Lock()
	removed, kept := 0, db.gcQueue[:0]
	collect := func(batch []garbageEntry) {
		for _, g := range batch {
			if g.cstamp < horizon {
				removed += g.tbl.arr.Prune(g.oid, horizon)
				db.reclaim(g.tbl, g.oid, horizon)
			} else {
				kept = append(kept, g)
			}
		}
	}
	collect(db.gcQueue) // filters in place: kept never outruns the read position
	drain := func(list *garbageList) {
		list.mu.Lock()
		batch := list.entries
		list.entries = list.drained // nobody copies
		list.mu.Unlock()
		collect(batch)
		clear(batch)
		list.drained = batch[:0]
	}
	drain(&db.applied)
	for i := range db.workers {
		drain(&db.workers[i].garbage)
	}
	pending := len(kept)
	if pending == 0 {
		kept = park(kept)
	}
	db.gcQueue = kept
	db.gcMu.Unlock()
	db.gcEpoch.TryReclaim()
	db.stats.VersionsPruned.Add(uint64(removed))
	db.stats.GCRuns.Add(1)
	db.stats.GCPending.Store(uint64(pending))
	return removed
}

// reclaim finishes a delete: when oid's chain is down to one committed
// tombstone older than horizon, no snapshot can see the record alive, and it
// leaves the table. Seal first, unlink second: once the slot is sealed no
// transaction can install a version on it (a re-insert that already found the
// OID through the index loses its CAS, sees the seal and goes back to the
// index), so there is never a version on an OID the index no longer reaches.
// The tombstone names the key; one that names none stays.
//
// A transaction that finds the key absent afterwards still depends on the
// delete, which may have anti-dependencies of its own, but has no tombstone
// to take the delete's stamp from. The stamp goes to deleteFloor before the
// seal, and every transaction that relies on a key being absent takes the
// floor as a predecessor stamp (validateNodes, ssnInsert). That is coarse —
// one word for the engine — and costs little: the floor is below the horizon,
// so below the begin stamp of whoever reads it, like the stamp of any version
// that transaction could have read instead.
//
//ermia:guarded
func (db *DB) reclaim(tbl *Table, oid mvcc.OID, horizon uint64) {
	tomb := tbl.arr.DeadTombstone(oid, horizon)
	if tomb == nil || len(tomb.Data) == 0 {
		return
	}
	for s := tomb.CLSN(); ; {
		if f := db.deleteFloor.Load(); f >= s || db.deleteFloor.CompareAndSwap(f, s) {
			break
		}
	}
	if tbl.arr.Seal(oid, tomb) {
		db.unlink(tbl, tomb.Data, oid)
	}
}

// unlink removes key from tbl's index while it still maps to the sealed oid.
// Conditional, because anyone who meets the seal helps: the key may already
// be gone, or bound again to a new record.
func (db *DB) unlink(tbl *Table, key []byte, oid mvcc.OID) {
	if tbl.idx.DeleteIf(key, oid) {
		db.stats.IndexEntriesReclaimed.Add(1)
	}
}

// WaitDurable blocks until every transaction committed so far is durable
// (group commit). A device error surfaces here and degrades the DB to
// read-only; see Health and Reattach. On a replica it is a no-op: a replica
// commits nothing of its own, and everything it has applied was already
// durable on the primary.
func (db *DB) WaitDurable() error {
	log := db.logMgr()
	if log == nil {
		return nil
	}
	return db.waitDurable(log, log.CurrentOffset())
}

// waitDurable waits until every offset below off is durable, noting a device
// error. It holds the gate's read side, so a Reattach cannot heal the log
// between a failed wait and Note: noting that stale error would degrade the
// healed DB again, with no fault left to reattach from.
func (db *DB) waitDurable(log *wal.Manager, off uint64) error {
	db.logGate.RLock()
	defer db.logGate.RUnlock()
	return db.health.Note(log.WaitDurable(off))
}

// Close stops background work and shuts down the log.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		if db.gcStop != nil {
			close(db.gcStop)
			<-db.gcDone
		}
		db.gcEpoch.Close()
		db.health.Fail()
		if log := db.logMgr(); log != nil {
			db.closeErr = log.Close()
		}
	})
	return db.closeErr
}

var (
	_ engine.DB           = (*DB)(nil)
	_ engine.Durable      = (*DB)(nil)
	_ engine.Checkpointer = (*DB)(nil)
)

func init() {
	// The engine assumes the TID flag bit is outside the table ID space.
	if MaxWorkers > mvcc.MaxReaders {
		panic(fmt.Sprintf("core: MaxWorkers %d exceeds reader bitmap capacity", MaxWorkers))
	}
}

// CountInFlightHeads counts head versions still carrying a TID stamp, a
// diagnostic for write-lock residency.
//
//ermia:guard-entry test-only diagnostic: callers run it on a quiesced engine with no concurrent GC sweep
func (t *Table) CountInFlightHeads() int {
	n := 0
	t.arr.Scan(func(oid mvcc.OID, head *mvcc.Version) bool {
		if mvcc.IsTID(head.CLSN()) {
			n++
		}
		return true
	})
	return n
}
