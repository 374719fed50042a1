package main

import (
	"bytes"
	"fmt"
	"path/filepath"

	"ermia/internal/client"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/xrand"
)

// kv_wire_write and kv_wire_read share one shape: a file-backed engine
// preloaded embedded, behind a loopback server with group durability, reached
// through the pooled client with one connection per caller.

const (
	kvRows  = 200000
	kvDepth = 4 // in-flight transactions per connection on kv_wire_write
	// freshBase starts the ids of rows the write workload inserts, above any
	// preloaded id; worker w owns freshBase | w<<32 | seq.
	freshBase = uint64(1) << 40
)

var kvWireWrite = workload{
	name:    "kv_wire_write",
	why:     "The commit path over the wire, 4 transactions in flight per connection: session pipeline, group committer, WaitDurable, device sync, ack; server, proto, client and wal sync dominate.",
	classes: []string{"write"},
	setup: func(cfg runConfig) (*instance, error) {
		return setupKVWire(cfg, kvDepth, func(w *kvWorker) caller { return (*kvWriter)(w) })
	},
}

var kvWireRead = workload{
	name:    "kv_wire_read",
	why:     "Read-only transactions over the same server bypass wal and the group committer: a commit-path change must not move it, while a proto, session or client codec change must.",
	classes: []string{"read"},
	setup: func(cfg runConfig) (*instance, error) {
		return setupKVWire(cfg, 1, func(w *kvWorker) caller { return (*kvReader)(w) })
	},
}

// kvWorker is the state of one caller; kvWriter and kvReader give it the two
// transaction shapes.
type kvWorker struct {
	id   int
	db   engine.DB
	tbl  engine.Table
	rng  *xrand.Rand
	rows uint64

	ids      [4]uint64 // rows the drawn transaction touches
	seq      uint64    // fresh rows drawn so far (writer)
	acked    bool      // the drawn transaction's last attempt was acked (writer)
	unacked  []uint64  // seqs whose insert was never acked (writer); normally empty
	version  uint64
	kbuf     [8]byte
	hibuf    [8]byte
	vbuf     [kvValueLen]byte
	wantbuf  [kvValueLen]byte
	corrupt  bool
	mismatch error // first value that differed from the generator's
}

// expect checks a value read for row id against the generator.
func (w *kvWorker) expect(id uint64, got []byte, exact bool) error {
	want := kvValue(w.wantbuf[:], id, 0)
	if w.corrupt && id%64 == 0 {
		want[kvValueLen-1] ^= 1
	}
	if !exact {
		want, got = want[:8], got[:min(8, len(got))] // updated rows keep only the id prefix
	}
	if !bytes.Equal(got, want) {
		err := fmt.Errorf("row %d: value differs from the generator's", id)
		if w.mismatch == nil {
			w.mismatch = err
		}
		return err
	}
	return nil
}

// kvWriter: 2 uniform Get + 1 uniform Update + 1 Insert of a fresh row.
type kvWriter kvWorker

// settle books the outcome of the write transaction drawn last.
func (w *kvWorker) settle() {
	if w.seq > 0 && !w.acked {
		w.unacked = append(w.unacked, w.seq)
	}
	w.acked = false
}

func (w *kvWriter) next() int {
	(*kvWorker)(w).settle()
	for i := 0; i < 3; i++ {
		w.ids[i] = w.rng.Uint64n(w.rows)
	}
	w.seq++
	w.version++
	return 0
}

func (w *kvWriter) try() error {
	kw := (*kvWorker)(w)
	txn := w.db.Begin(w.id)
	for _, id := range w.ids[:2] {
		v, err := txn.Get(w.tbl, kvKey(w.kbuf[:], id))
		if err == nil {
			err = kw.expect(id, v, false)
		}
		if err != nil {
			txn.Abort()
			return err
		}
	}
	if err := txn.Update(w.tbl, kvKey(w.kbuf[:], w.ids[2]), kvValue(w.vbuf[:], w.ids[2], w.version)); err != nil {
		txn.Abort()
		return err
	}
	fresh := freshBase | uint64(w.id)<<32 | w.seq
	if err := txn.Insert(w.tbl, kvKey(w.kbuf[:], fresh), kvValue(w.vbuf[:], fresh, 0)); err != nil {
		txn.Abort()
		return err
	}
	err := txn.Commit()
	w.acked = err == nil
	return err
}

// kvReader: read-only, 4 uniform Get + 1 Scan of 20 consecutive rows, every
// value compared with the generator's.
type kvReader kvWorker

const kvScanLen = 20

func (w *kvReader) next() int {
	for i := range w.ids {
		w.ids[i] = w.rng.Uint64n(w.rows - kvScanLen)
	}
	return 0
}

func (w *kvReader) try() error {
	kw := (*kvWorker)(w)
	txn := w.db.BeginReadOnly(w.id)
	for _, id := range w.ids {
		v, err := txn.Get(w.tbl, kvKey(w.kbuf[:], id))
		if err == nil {
			err = kw.expect(id, v, true)
		}
		if err != nil {
			txn.Abort()
			return err
		}
	}
	lo := w.ids[0]
	n := uint64(0)
	var bad error
	err := txn.Scan(w.tbl, kvKey(w.kbuf[:], lo), kvKey(w.hibuf[:], lo+kvScanLen), func(k, v []byte) bool {
		bad = kw.expect(lo+n, v, true)
		n++
		return bad == nil
	})
	if err == nil {
		err = bad
	}
	if err == nil && n != kvScanLen {
		err = fmt.Errorf("scan from row %d returned %d rows, want %d", lo, n, kvScanLen)
		if w.mismatch == nil {
			w.mismatch = err
		}
	}
	if err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

func setupKVWire(cfg runConfig, depth int, shape func(*kvWorker) caller) (*instance, error) {
	inst := newInstance(cfg)
	fail := func(err error) (*instance, error) {
		inst.close()
		return nil, err
	}

	db, err := openEngine(cfg, filepath.Join(cfg.dir, "log"), false, inst)
	if err != nil {
		return nil, err
	}
	rows := cfg.scale(kvRows)
	if err := loadRows(db, kvTable, rows, func(i int) ([]byte, []byte) {
		return kvKey(make([]byte, 8), uint64(i)), kvValue(make([]byte, kvValueLen), uint64(i), 0)
	}); err != nil {
		return fail(err)
	}

	callers := cfg.clients * depth
	ln, err := listen(cfg, inst)
	if err != nil {
		return fail(err)
	}
	if err := startServer(cfg, db, server.Config{Workers: callers + 8, MaxConns: cfg.clients + 8}, ln, inst); err != nil {
		ln.Close()
		return fail(err)
	}
	pool, err := client.Dial(client.Options{Addr: ln.Addr().String(), PoolSize: cfg.clients, Dial: inst.dialHook()})
	if err != nil {
		return fail(err)
	}
	inst.pools = append(inst.pools, pool)
	inst.onClose(func() { pool.Close() })

	// Caller i uses connection i % clients, so each connection carries depth
	// transactions at once.
	front := inst.traced(pool)
	tbl := front.CreateTable(kvTable)
	workers := make([]*kvWorker, callers)
	for i := range workers {
		workers[i] = &kvWorker{
			id: i, db: front, tbl: tbl, rows: uint64(rows),
			rng: xrand.New2(cfg.seed, uint64(i)), corrupt: cfg.corrupt,
		}
		inst.callers = append(inst.callers, shape(workers[i]))
	}
	inst.probeKeys = func() [][]byte { return kvKeys(rows) }

	inst.check = func(res *loadResult) error {
		// Row count = preload + acked inserts, and every acked insert is
		// readable; both read through the embedded engine.
		txn := db.BeginReadOnly(0)
		defer txn.Abort()
		core := db.OpenTable(kvTable)
		want := uint64(rows)
		if cfg.corrupt {
			want++
		}
		for _, w := range workers {
			if w.mismatch != nil {
				return w.mismatch
			}
			w.settle()
			want += w.seq - uint64(len(w.unacked))
			skip := map[uint64]bool{}
			for _, s := range w.unacked {
				skip[s] = true
			}
			for s := uint64(1); s <= w.seq; s++ {
				if skip[s] {
					continue
				}
				fresh := freshBase | uint64(w.id)<<32 | s
				if _, err := txn.Get(core, kvKey(w.kbuf[:], fresh)); err != nil {
					return fmt.Errorf("acked insert of row %#x by worker %d: %w", fresh, w.id, err)
				}
			}
		}
		var got uint64
		if err := txn.Scan(core, nil, nil, func(_, _ []byte) bool { got++; return true }); err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("table holds %d rows, want %d (preload %d + acked inserts)", got, want, rows)
		}
		return nil
	}
	return inst, nil
}
