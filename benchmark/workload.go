package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"time"

	"ermia"
	"ermia/internal/client"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// workload is one named traffic mix. Everything a run needs beyond the
// generated inputs is built by setup and torn down by the instance's close.
type workload struct {
	name string
	why  string
	// classes names the transaction classes; long lists the ones counted in
	// long_txn_per_s (nil: the workload has a single class, which is then
	// also its longest).
	classes []string
	long    []int
	setup   func(cfg runConfig) (*instance, error)
}

var workloads = []workload{tpccHybrid, kvWireWrite, kvWireRead, kvSharded}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is what a set-up is given.
type runConfig struct {
	seed    uint64
	clients int    // closed-loop callers (connections, on the wire workloads)
	dir     string // fresh directory for this set-up's files
	small   bool   // smoke sizes: a tenth of the data
	traced  bool   // install the decorators
	corrupt bool   // seed one wrong expected value, to prove the checks bite
}

// scale returns n, or a tenth of it at smoke size.
func (c runConfig) scale(n int) int {
	if c.small {
		return n / 10
	}
	return n
}

// instance is one set-up system under test.
type instance struct {
	callers    []caller
	isRollback func(error) bool
	// check runs the workload's correctness checks after the load has
	// stopped. It may close and reopen the engine. final is set before the
	// check of a run's last pass; checks that cost seconds run only then.
	check func(res *loadResult) error
	final bool
	// closers stop servers, clients and engines; close runs them newest
	// first. Every one of them may be called twice.
	closers []func()

	// What the traced run reads; nil or empty when untraced or not present
	// in this workload.
	clientTrace *tracer
	engineTrace *tracer
	storage     []*storageTap
	clientNet   *netTap
	serverNet   *netTap
	cores       []*ermia.DB
	servers     []*server.Server
	pools       []*client.Client
	router      *shard.Router
	inDoubt     int // transactions the post-run ResolveInDoubt had to retire
	// recovered is set by check on workloads that recover their log: bytes
	// replayed and the time ermia.Recover took.
	recoveredBytes uint64
	recoverTime    time.Duration
	// probeKeys returns keys of the workload's main table, for the index
	// and indirection-array probes.
	probeKeys func() [][]byte
}

func noRollback(error) bool { return false }

// onClose registers f to run when the instance is closed.
func (inst *instance) onClose(f func()) { inst.closers = append(inst.closers, f) }

func (inst *instance) close() {
	for i := len(inst.closers) - 1; i >= 0; i-- {
		inst.closers[i]()
	}
}

// openEngine opens a fresh file-backed engine in dir. The log manager's
// background flusher is on, so an embedded commit does not wait for the
// device; servers add their own durability wait on top.
func openEngine(cfg runConfig, dir string, serializable bool, inst *instance) (*ermia.DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := ermia.Options{Serializable: serializable, Dir: dir, GCInterval: gcInterval}
	if cfg.traced {
		ds, err := wal.NewDirStorage(dir)
		if err != nil {
			return nil, err
		}
		tap := &storageTap{Storage: ds}
		inst.storage = append(inst.storage, tap)
		opts.Storage = tap
	}
	db, err := ermia.Open(opts)
	if err != nil {
		return nil, err
	}
	inst.cores = append(inst.cores, db)
	inst.onClose(func() { db.Close() })
	return db, nil
}

// gcInterval is how often every engine here sweeps old versions.
const gcInterval = 50 * time.Millisecond

// ---- key-value rows shared by the kv_* workloads ----

const (
	kvTable    = "kv"
	kvValueLen = 100
)

// kvKey is the 8-byte big-endian key of row id, so consecutive ids are
// consecutive keys.
func kvKey(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst[:0], id)
}

// kvValue fills a 100-byte value derived from (id, version): the id in the
// first 8 bytes, then a splitmix64 stream.
func kvValue(dst []byte, id, version uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst[:0], id)
	x := id*0x9E3779B97F4A7C15 + version
	for len(dst) < kvValueLen {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		dst = binary.BigEndian.AppendUint64(dst, z^(z>>31))
	}
	return dst[:kvValueLen]
}

// kvKeys returns the keys of rows [0, n).
func kvKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = kvKey(make([]byte, 8), uint64(i))
	}
	return keys
}

// loadRows inserts rows [0, n) into db's table through the embedded engine,
// in transactions of 1000.
func loadRows(db engine.DB, table string, n int, row func(i int) (key, value []byte)) error {
	tbl := db.CreateTable(table)
	for i := 0; i < n; {
		txn := db.Begin(0)
		for end := min(i+1000, n); i < end; i++ {
			k, v := row(i)
			if err := txn.Insert(tbl, k, v); err != nil {
				txn.Abort()
				return fmt.Errorf("load %s row %d: %w", table, i, err)
			}
		}
		if err := txn.Commit(); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// listen opens a loopback port for a server.
func listen(cfg runConfig, inst *instance) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		ln = &listenerTap{Listener: ln, t: inst.serverNet}
	}
	return ln, nil
}

// startServer serves db on ln with group durability: a commit is acked once
// the group committer's WaitDurable has covered it.
func startServer(cfg runConfig, db *ermia.DB, sc server.Config, ln net.Listener, inst *instance) error {
	sc.DB = db
	if cfg.traced {
		sc.DB = &coreTap{DB: db, t: inst.engineTrace, base: len(inst.servers) * slotsPerServer}
	}
	sc.Durability = server.DurabilityGroup
	srv, err := server.New(sc)
	if err != nil {
		return err
	}
	inst.servers = append(inst.servers, srv)
	inst.onClose(func() { srv.Close() })
	go srv.Serve(ln) // returns once the server is closed
	return nil
}

// newInstance makes an instance with its tracers and taps when cfg asks for
// the traced run.
func newInstance(cfg runConfig) *instance {
	inst := &instance{isRollback: noRollback}
	if cfg.traced {
		inst.clientTrace = newTracer("client", 40000)
		inst.engineTrace = newTracer("engine", 8000)
		inst.clientNet = &netTap{}
		inst.serverNet = &netTap{}
	}
	return inst
}

// traced returns db behind decorator (1) on a traced run, else db itself.
func (inst *instance) traced(db engine.DB) engine.DB {
	if inst.clientTrace == nil {
		return db
	}
	return &tracedDB{DB: db, t: inst.clientTrace}
}

// dialHook returns the counting dialer on a traced run, else nil (plain TCP).
func (inst *instance) dialHook() func(addr string, timeout time.Duration) (net.Conn, error) {
	if inst.clientNet == nil {
		return nil
	}
	return inst.clientNet.dial
}

// setClass tells the client-side tracer which class worker runs next.
func (inst *instance) setClass(worker, class int) {
	if inst.clientTrace != nil {
		inst.clientTrace.setClass(worker, class)
	}
}

// deck deals class indexes in the proportions given by weights: each cycle
// is one shuffled pass over a deck holding weight[i] cards of class i, so
// every run of len(deck) operations has exactly the stated mix and only the
// order is random.
type deck struct {
	cards []uint8
	pos   int
	rng   *xrand.Rand
}

func newDeck(weights []int, rng *xrand.Rand) *deck {
	d := &deck{rng: rng}
	for class, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, uint8(class))
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.pos == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.rng.Intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.pos = 0
	}
	c := d.cards[d.pos]
	d.pos++
	return int(c)
}
