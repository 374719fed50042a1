package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// GC equivalence: RunGC finds garbage from the lists commits and appliers
// leave behind instead of visiting every OID. The property that keeps it
// honest is that a full sweep (sweepGC, the collector it replaced) run right
// after it, at the same horizon, has nothing left to prune — with a reader
// pinning the horizon, after the reader ends, after recovery, on a replica,
// and after promotion.

const (
	gcTables = 2
	gcKeys   = 48
)

// gcWorkload drives seeded random transactions (upserts, deletes, reinserts,
// self-overwrites, aborts) over several worker slots and mirrors what
// committed in model.
type gcWorkload struct {
	t     *testing.T
	db    *DB
	rng   *xrand.Rand
	tbls  [gcTables]engine.Table
	model map[string]string // "table/key" → value
	n     int
}

func newGCWorkload(t *testing.T, db *DB, seed uint64) *gcWorkload {
	w := &gcWorkload{t: t, rng: xrand.New(seed), model: map[string]string{}}
	w.use(db)
	return w
}

// use points the workload at db (the original, a recovered one, a replica),
// creating or reopening its tables there.
func (w *gcWorkload) use(db *DB) {
	w.db = db
	for i := range w.tbls {
		if w.tbls[i] = db.CreateTable(fmt.Sprintf("gc%d", i)); w.tbls[i] == nil {
			w.t.Fatalf("table gc%d missing", i)
		}
	}
}

func (w *gcWorkload) run(txns int) {
	w.t.Helper()
	for i := 0; i < txns; i++ {
		w.n++
		txn := w.db.Begin(1 + w.rng.Intn(4))
		pending := map[string]*string{}
		for op, ops := 0, 1+w.rng.Intn(6); op < ops; op++ {
			ti := w.rng.Intn(gcTables)
			key := fmt.Sprintf("k%02d", w.rng.Intn(gcKeys))
			mk := fmt.Sprintf("%d/%s", ti, key)
			_, live := w.model[mk]
			if p, ok := pending[mk]; ok {
				live = p != nil
			}
			var err error
			if live && w.rng.Bool(0.25) {
				err = txn.Delete(w.tbls[ti], []byte(key))
				pending[mk] = nil
			} else {
				val := fmt.Sprintf("v%d.%d", w.n, op)
				if live {
					err = txn.Update(w.tbls[ti], []byte(key), []byte(val))
				} else {
					err = txn.Insert(w.tbls[ti], []byte(key), []byte(val))
				}
				pending[mk] = &val
			}
			if err != nil {
				w.t.Fatalf("txn %d op %d on %s: %v", w.n, op, mk, err)
			}
		}
		if w.rng.Bool(0.15) {
			txn.Abort()
			continue
		}
		mustCommit(w.t, txn)
		for mk, p := range pending {
			if p == nil {
				delete(w.model, mk)
			} else {
				w.model[mk] = *p
			}
		}
	}
}

// checkState asserts that txn sees exactly want.
func (w *gcWorkload) checkState(label string, txn engine.Txn, want map[string]string) {
	w.t.Helper()
	for ti, tbl := range w.tbls {
		for k := 0; k < gcKeys; k++ {
			key := fmt.Sprintf("k%02d", k)
			wv, live := want[fmt.Sprintf("%d/%s", ti, key)]
			v, err := txn.Get(tbl, []byte(key))
			switch {
			case live && (err != nil || string(v) != wv):
				w.t.Fatalf("%s: %d/%s = %q, %v; want %q", label, ti, key, v, err, wv)
			case !live && !errors.Is(err, engine.ErrNotFound):
				w.t.Fatalf("%s: %d/%s = %q, %v; want not found", label, ti, key, v, err)
			}
		}
	}
}

// checkIndex asserts that every table's primary index holds exactly the
// model's keys: nothing deleted is still there, nothing live has left.
func (w *gcWorkload) checkIndex(label string) {
	w.t.Helper()
	for ti, tbl := range w.tbls {
		got := tbl.(*Table).indexEntries()
		want := 0
		for mk := range w.model {
			var mt int
			var key string
			fmt.Sscanf(mk, "%d/%s", &mt, &key)
			if mt != ti {
				continue
			}
			want++
			if _, ok := got[key]; !ok {
				w.t.Fatalf("%s: live key %s has left table %d's index", label, key, ti)
			}
		}
		if len(got) != want || tbl.(*Table).Len() != want {
			w.t.Fatalf("%s: table %d's index holds %d entries (Len %d) for %d live rows",
				label, ti, len(got), tbl.(*Table).Len(), want)
		}
		if n := tbl.(*Table).unreachableChains(); n != 0 {
			w.t.Fatalf("%s: table %d has %d version chains its index does not reach", label, ti, n)
		}
	}
}

// checkCollected runs a GC round with no transaction open and asserts the
// fully collected state: the sweep agrees, nothing is queued anywhere, every
// chain is down to its one committed version, and every index is down to
// the live keys.
func (w *gcWorkload) checkCollected(label string) {
	w.t.Helper()
	w.db.RunGC()
	if extra := w.db.sweepGC(); extra != 0 {
		w.t.Fatalf("%s: a full sweep pruned %d versions RunGC left behind", label, extra)
	}
	if q, p := w.db.queuedGarbage(), w.db.Stats().GCPending.Load(); q != 0 || p != 0 {
		w.t.Fatalf("%s: %d entries still queued, GCPending=%d, with no snapshot open", label, q, p)
	}
	if n := w.db.longestChain(); n != 1 {
		w.t.Fatalf("%s: longest chain has %d versions, want 1", label, n)
	}
	w.checkIndex(label)
	txn := w.db.BeginReadOnly(0)
	w.checkState(label, txn, w.model)
	txn.Abort()
}

func gcTestConfig(st wal.Storage) Config {
	cfg := equivCfg(st)
	cfg.Serializable = true
	return cfg
}

func TestGCEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runGCEquivalence(t, seed) })
	}
}

func runGCEquivalence(t *testing.T, seed uint64) {
	st := wal.NewMemStorage()
	db, err := Open(gcTestConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	w := newGCWorkload(t, db, seed)
	w.run(200)

	// A long-running reader pins the horizon at its snapshot.
	reader := db.BeginReadOnly(9)
	snapshot := make(map[string]string, len(w.model))
	for k, v := range w.model {
		snapshot[k] = v
	}
	w.run(200)
	db.RunGC()
	if extra := db.sweepGC(); extra != 0 {
		t.Fatalf("reader open: a full sweep pruned %d versions RunGC left behind", extra)
	}
	pending := db.Stats().GCPending.Load()
	if pending == 0 || int(pending) != db.queuedGarbage() {
		t.Fatalf("reader open: GCPending=%d, %d entries queued; want the overwrites above the reader's snapshot retained",
			pending, db.queuedGarbage())
	}
	w.checkState("reader's snapshot after GC", reader, snapshot)
	for ti, tbl := range w.tbls {
		idx := tbl.(*Table).indexEntries()
		for k := 0; k < gcKeys; k++ {
			key := fmt.Sprintf("k%02d", k)
			if _, live := snapshot[fmt.Sprintf("%d/%s", ti, key)]; live && idx[key] == 0 {
				t.Fatalf("reader open: key %d/%s, live in its snapshot, has left the index", ti, key)
			}
		}
	}
	// A retained entry is retried, not lost: more rounds change nothing.
	if n := db.RunGC(); n != 0 || db.Stats().GCPending.Load() != pending {
		t.Fatalf("reader open: second round pruned %d, GCPending %d → %d", n, pending, db.Stats().GCPending.Load())
	}
	reader.Abort()
	w.checkCollected("reader ended")

	// Recovery replays the whole log through the Applier, which queues every
	// overwrite it installs.
	w.run(100)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rdb, err := Recover(gcTestConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	if rdb.queuedGarbage() == 0 || rdb.longestChain() < 2 {
		t.Fatalf("recovered: %d entries queued, longest chain %d; replay should have rebuilt and queued the overwrites",
			rdb.queuedGarbage(), rdb.longestChain())
	}
	w.use(rdb)
	w.checkCollected("recovered")
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}

	// A replica restores the same mirror through the same Applier; promotion
	// turns it into a primary whose commits feed the workers' lists.
	rst := st.Crash()
	cfg := gcTestConfig(rst)
	pdb, ap, pass, err := OpenReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	w.use(pdb)
	w.checkCollected("replica")
	ap.Close()
	log, err := wal.Open(cfg.WAL, pass)
	if err != nil {
		t.Fatal(err)
	}
	if err := pdb.Promote(log); err != nil {
		t.Fatal(err)
	}
	w.run(100)
	w.checkCollected("promoted")
}

// An aborted transaction unlinks its own versions and leaves nothing for
// the collector.
func TestGCAbortEnqueuesNothing(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	for i := 0; i < 10; i++ {
		put(t, db, tbl, fmt.Sprintf("k%d", i), "v0")
	}
	db.RunGC() // the inserts' absent versions
	txn := db.Begin(1)
	for i := 0; i < 10; i++ {
		if err := txn.Update(tbl, []byte(fmt.Sprintf("k%d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	txn.Abort()
	if n := db.queuedGarbage(); n != 0 {
		t.Fatalf("aborted transaction queued %d garbage entries", n)
	}
	if n := db.longestChain(); n != 1 {
		t.Fatalf("aborted updates left a chain of %d versions", n)
	}
}

// Under concurrent writers and a background collector draining every
// millisecond, no overwrite may slip past the lists: an entry drained while
// its version still carried a TID stamp would be spent without pruning
// anything, and only a sweep would ever find that chain again.
func TestGCEquivalenceConcurrent(t *testing.T) {
	db, err := Open(Config{
		WAL:          wal.Config{SegmentSize: 1 << 20, BufferSize: 1 << 18},
		Serializable: true,
		GCInterval:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	const keys, workers, per = 16, 4, 2000
	for k := 0; k < keys; k++ {
		put(t, db, tbl, fmt.Sprintf("k%02d", k), "v0")
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(7, uint64(id))
			for i := 0; i < per; i++ {
				txn := db.Begin(id + 1)
				var err error
				for op := 0; op < 3 && err == nil; op++ {
					key := []byte(fmt.Sprintf("k%02d", rng.Intn(keys)))
					if _, err = txn.Get(tbl, key); err == nil {
						err = txn.Update(tbl, key, []byte(fmt.Sprintf("w%d.%d", id, i)))
					}
				}
				if err != nil {
					txn.Abort()
				} else {
					txn.Commit() // conflicts abort inside Commit
				}
			}
		}(w)
	}
	wg.Wait()
	db.RunGC()
	if extra := db.sweepGC(); extra != 0 {
		t.Fatalf("a full sweep pruned %d versions the garbage lists never named", extra)
	}
	if q, n := db.queuedGarbage(), db.longestChain(); q != 0 || n != 1 {
		t.Fatalf("quiesced: %d entries queued, longest chain %d", q, n)
	}
	if db.Stats().VersionsPruned.Load() == 0 {
		t.Fatal("nothing was ever pruned")
	}
}

// The collector's horizon is the oldest begin stamp a worker slot or a
// checkpoint publishes, capped by the clock; a transaction keeps its hold
// through pre-commit, and a stamp still being initialised blocks GC
// altogether.
func TestHorizon(t *testing.T) {
	db := testDB(t, true)
	tbl := db.CreateTable("t")
	put(t, db, tbl, "k", "v0")
	db.RunGC() // the insert's absent version
	clock := db.beginStamp()
	if h := db.horizon(); h != clock {
		t.Fatalf("idle horizon %d, want the clock %d", h, clock)
	}
	a := db.BeginTxn(3)
	put(t, db, tbl, "k2", "v") // moves the clock past a's snapshot
	b := db.BeginTxn(4)
	if a.begin >= b.begin || db.horizon() != a.begin {
		t.Fatalf("horizon %d with snapshots at %d and %d", db.horizon(), a.begin, b.begin)
	}
	// A second transaction on a busy slot, against the contract, must not
	// raise the slot's stamp; the slot holds until its last one finishes.
	a2 := db.BeginTxn(3)
	if db.horizon() != a.begin {
		t.Fatalf("a second transaction on the slot moved the horizon to %d", db.horizon())
	}
	a.Abort()
	if db.horizon() != a.begin {
		t.Fatalf("horizon %d released while the slot still runs a transaction", db.horizon())
	}
	a2.Abort()
	if db.horizon() != b.begin {
		t.Fatalf("horizon %d after the older slot finished, want %d", db.horizon(), b.begin)
	}
	if err := b.Update(tbl, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, b)
	if h := db.horizon(); h != db.beginStamp() {
		t.Fatalf("horizon %d with nothing open, want the clock %d", h, db.beginStamp())
	}
	db.workers[9].begin.Store(0) // a begin caught between publishing and reading the clock
	if db.horizon() != 0 || db.RunGC() != 0 {
		t.Fatal("an initialising stamp must hold the horizon at zero")
	}
	db.workers[9].begin.Store(stampIdle)
	db.ckptPin.Store(clock)
	if db.horizon() != clock {
		t.Fatalf("horizon %d under a checkpoint pinned at %d", db.horizon(), clock)
	}
	db.ckptPin.Store(stampIdle)
	if n := db.RunGC(); n != 2 {
		t.Fatalf("released horizon pruned %d versions, want the overwrite of k and what k2's insert overwrote", n)
	}
}
