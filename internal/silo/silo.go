// Package silo reproduces Silo (Tu et al., SOSP 2013), the lightweight-OCC
// memory-optimized system the paper compares ERMIA against.
//
// Records carry a TID word (epoch ‖ sequence ‖ status bits). Reads are
// lock-free consistent snapshots (word, data, word double-check); writes are
// buffered locally and installed by the three-phase commit protocol: lock
// the write set in a global order, validate the read set and the index node
// set, then install with new TID words. Contention resolution is therefore
// writer-wins: any reader whose footprint was overwritten aborts at commit —
// the behaviour whose consequences for heterogeneous workloads the ERMIA
// paper studies.
//
// Read-only transactions can be served from copy-on-write snapshots refreshed
// at epoch boundaries, as in Silo; they never abort but are unusable by
// transactions that write (§5 of the paper: "these snapshots are too
// expensive to use with small transactions, and unusable by transactions
// that perform any writes").
package silo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/index"
	"ermia/internal/wal"
)

// MaxWorkers bounds worker slots.
const MaxWorkers = 256

// TID word layout: bit 0 = lock, bit 1 = absent, bits 2..63 = TID.
// A TID is (epoch << 40) | seq.
const (
	lockBit   = 1 << 0
	absentBit = 1 << 1
	tidShift  = 2
	seqBits   = 40
	seqMask   = (1 << seqBits) - 1
)

func makeWord(tid uint64, absent bool) uint64 {
	w := tid << tidShift
	if absent {
		w |= absentBit
	}
	return w
}

func wordTID(w uint64) uint64    { return w >> tidShift }
func wordLocked(w uint64) bool   { return w&lockBit != 0 }
func wordAbsent(w uint64) bool   { return w&absentBit != 0 }
func tidEpoch(tid uint64) uint64 { return tid >> seqBits }

// Record is one row: the current committed value plus an optional snapshot
// chain for read-only transactions.
type Record struct {
	word atomic.Uint64
	data atomic.Pointer[[]byte]
	snap atomic.Pointer[snapVersion]
	id   uint64 // global order for deadlock-free write-set locking
}

// snapVersion is a copy-on-write snapshot entry: data as of the given
// epoch (absent records carry nil data and absent=true). prev is atomic
// because installers trim chains that read-only transactions are walking.
type snapVersion struct {
	epoch  uint64
	data   []byte
	absent bool
	prev   atomic.Pointer[snapVersion]
}

// Config controls a Silo DB.
type Config struct {
	// EpochInterval is the period of the global epoch advancer, which
	// drives group commit and read-only snapshots. Defaults to 10ms.
	EpochInterval time.Duration
	// Snapshots enables read-only snapshot maintenance. When disabled,
	// BeginReadOnly transactions run the normal OCC protocol.
	Snapshots bool
	// Storage holds the wal segments the per-epoch group commit writes;
	// nil keeps the log in memory.
	Storage wal.Storage
}

// Table is a Silo table: an index from keys to records.
type Table struct {
	name string
	idx  *index.Tree[*Record]
}

// Name implements engine.Table.
func (t *Table) Name() string { return t.name }

// Len returns the number of keys in the table's index.
func (t *Table) Len() int { return t.idx.Len() }

// DB is a Silo engine instance.
type DB struct {
	cfg   Config
	epoch atomic.Uint64 // global epoch, advanced by the ticker

	// roEpoch[w] is 1 + the snapshot epoch of worker w's in-flight
	// read-only transaction (0 when idle); snapFloor is the oldest epoch
	// any snapshot reader may still need, so version-chain trimming never
	// cuts under a long-running reader.
	roEpoch   [MaxWorkers]atomic.Uint64
	snapFloor atomic.Uint64

	mu     sync.Mutex
	tables map[string]*Table

	recID atomic.Uint64

	workers [MaxWorkers]workerState

	// log holds one commit block per writer transaction. It runs in
	// SyncFlush mode: the epoch ticker's WaitDurable is the only flush
	// driver, which is SiloR's per-epoch group commit. logGate is
	// read-locked across each commit's reservation so Reattach can take it
	// exclusively and repair the log with no claim in flight (health.go).
	log     *wal.Manager
	logGate sync.RWMutex
	health  engine.Health

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error

	stats Stats
}

type workerState struct {
	lastTID uint64
	logBuf  []byte
	_       [32]byte
}

// Stats aggregates engine counters.
type Stats struct {
	Commits         atomic.Uint64
	Aborts          atomic.Uint64
	ReadValidations atomic.Uint64 // read-set validation failures
	PhantomAborts   atomic.Uint64
	LockConflicts   atomic.Uint64 // write-lock acquisition failures
}

// Open creates a Silo DB.
func Open(cfg Config) (*DB, error) {
	return open(cfg, nil, 2) // read-only snapshots read epoch-1; start past zero
}

// open starts a DB at the given epoch on a fresh log, or on the log resume
// describes (Recover).
func open(cfg Config, resume *wal.RecoverResult, epoch uint64) (*DB, error) {
	if cfg.EpochInterval == 0 {
		cfg.EpochInterval = 10 * time.Millisecond
	}
	log, err := wal.Open(wal.Config{Storage: cfg.Storage, SyncFlush: true}, resume)
	if err != nil {
		return nil, err
	}
	db := &DB{cfg: cfg, tables: make(map[string]*Table), log: log}
	db.epoch.Store(epoch)
	db.stop = make(chan struct{})
	db.done = make(chan struct{})
	go db.ticker()
	return db, nil
}

// ticker advances the global epoch, Silo's coarse-grained timescale for
// group commit and snapshot refresh.
func (db *DB) ticker() {
	defer close(db.done)
	t := time.NewTicker(db.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-db.stop:
			return
		case <-t.C:
			db.epoch.Add(1)
			db.recomputeSnapFloor()
			db.WaitDurable() // a Sync failure degrades the DB (health.go)
		}
	}
}

// AdvanceEpoch manually bumps the epoch (tests and benchmarks).
func (db *DB) AdvanceEpoch() {
	db.epoch.Add(1)
	db.recomputeSnapFloor()
}

// recomputeSnapFloor publishes the oldest epoch snapshot trimming must
// preserve: epoch-2 normally, older if a snapshot reader is still pinned
// there. A stale (smaller) floor is always safe.
func (db *DB) recomputeSnapFloor() {
	epoch := db.epoch.Load()
	floor := uint64(0)
	if epoch >= 2 {
		floor = epoch - 2
	}
	for w := range db.roEpoch {
		if v := db.roEpoch[w].Load(); v > 0 && v-1 < floor {
			floor = v - 1
		}
	}
	db.snapFloor.Store(floor)
}

// Epoch returns the current global epoch.
func (db *DB) Epoch() uint64 { return db.epoch.Load() }

// Stats returns engine counters.
func (db *DB) Stats() *Stats { return &db.stats }

// CreateTable implements engine.DB.
func (db *DB) CreateTable(name string) engine.Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t
	}
	t := &Table{name: name, idx: index.New[*Record]()}
	db.tables[name] = t
	return t
}

// OpenTable implements engine.DB.
func (db *DB) OpenTable(name string) engine.Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t
	}
	return nil
}

// Close stops the epoch ticker, makes Failed the terminal health state and
// shuts down the log, writing what the last epoch left unflushed.
func (db *DB) Close() error {
	db.closeOnce.Do(func() {
		close(db.stop)
		<-db.done
		db.health.Fail()
		db.closeErr = db.log.Close()
	})
	return db.closeErr
}

// newRecord allocates a record with a global order id.
func (db *DB) newRecord() *Record {
	return &Record{id: db.recID.Add(1)}
}

// stableRead performs Silo's consistent record read: word, data, word.
// It spins while the record is locked by a committing writer.
func stableRead(r *Record) (data []byte, word uint64) {
	for {
		w1 := r.word.Load()
		if wordLocked(w1) {
			runtime.Gosched()
			continue
		}
		d := r.data.Load()
		w2 := r.word.Load()
		if w1 == w2 {
			if d == nil {
				return nil, w1
			}
			return *d, w1
		}
	}
}

var (
	_ engine.DB      = (*DB)(nil)
	_ engine.Durable = (*DB)(nil)
)
