// Package nemesis is a deterministic, seed-replayable chaos harness for the
// full ERMIA network stack. Two topologies run on one fixture (fixture.go),
// which wires every node through internal/faultconn, points a retrying
// client workload at the cluster, executes a randomized-but-reproducible
// schedule of faults, and then checks the end state on the healed network.
// RunShard drives a two-shard cluster through the 2PC router (shard.go).
// Run assembles a primary + replica cluster and schedules network
// partitions, mid-frame cuts, latency flutter, primary crashes, and (via
// heartbeat silence) supervised automatic promotions. While the cluster
// burns, the harness mechanically checks the client-facing invariants the
// design claims (see DESIGN.md "Network fault model"):
//
//   - Acked durability: every commit whose retry loop returned nil is
//     readable after the dust settles, no matter how many failovers and
//     crashes happened in between. Semi-sync replication makes this hold
//     across promotion: an ack implies the bytes were applied on the
//     replica that would be promoted.
//
//   - Snapshot monotonicity: a reader never observes a per-worker counter
//     below the acked frontier captured before its snapshot began, and —
//     while the client's observed epoch is stable — never below what the
//     same reader saw in its previous snapshot. Regressions are permitted
//     only across an epoch change, and only for commits that were never
//     acknowledged (semi-sync may discard those at failover).
//
//   - Single writer per epoch: the per-epoch write-commit audits of every
//     primary incarnation and of the promoted replica are key-disjoint. A
//     healed old primary may keep an engine alive, but it can never
//     acknowledge a write under an epoch the new primary also acked.
//
// Everything random — the fault schedule, retry jitter — derives from
// Config.Seed, so a failing seed replays the same schedule byte for byte.
// The schedule is generated up front (Result.Schedule) rather than sampled
// during execution, which makes it independent of scheduler timing.
package nemesis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/repl"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// Endpoint names on the fault network. The client, the primary server, the
// replica's streaming endpoint, and the post-promotion server each get one,
// so every directed link can be failed independently.
const (
	epClient  = "client"
	epPrimary = "primary"
	epReplica = "replica"
	epBackup  = "backup"
)

// silenceTimeout is how long the supervisor waits on a silent primary
// before it promotes the replica.
const silenceTimeout = 250 * time.Millisecond

// Config parameterizes one nemesis run. The zero value of every field gets
// a sensible default; only Seed is meaningfully distinct per run.
type Config struct {
	// Seed drives the fault schedule and all retry jitter. Same seed,
	// same schedule.
	Seed uint64
	// Duration is the chaos window during which load and faults overlap.
	// Verification happens after it, on a healed network. Default 2s.
	Duration time.Duration
	// Workers is the number of concurrent writer goroutines. Default 3.
	Workers int
	// Readers is the number of concurrent snapshot-reader goroutines
	// checking monotonicity invariants. Default 2.
	Readers int
}

// Result reports what one run did and every invariant violation it found.
type Result struct {
	Outcome
	Reads      int    // reader snapshots that completed
	Promotions int    // supervised promotions (0 or 1)
	Crashes    int    // primary crash+restart cycles
	FinalEpoch uint64 // highest epoch observed by the shared client
}

// harness is the primary/replica topology.
type harness struct {
	*fixture
	cfg Config
	res *Result

	priDB   *core.DB
	rep     *repl.Replica
	stopSup chan struct{}
	supDone chan struct{}

	cli   *client.Client
	tbl   engine.Table
	reads atomic.Int64
}

func (h *harness) startPrimary() error {
	_, err := h.serve(epPrimary, server.Config{
		DB:            h.priDB,
		SyncRepl:      true,
		SyncReplWait:  400 * time.Millisecond,
		Epoch:         1,
		ReplHeartbeat: 10 * time.Millisecond,
	})
	return err
}

// startBackup serves the promoted replica's engine under its new epoch.
// Called from the supervisor's OnPromote hook.
func (h *harness) startBackup() {
	if _, err := h.serve(epBackup, server.Config{DB: h.rep.DB(), Epoch: h.rep.Epoch()}); err != nil {
		h.violate("harness: promoted server: %v", err)
	}
}

// fault crashes the primary server and restarts it under its old epoch on
// the same engine. Each incarnation is a new server with its own audit.
func (h *harness) fault(ev event) error {
	if ev.act != actCrash {
		return errors.New("not a primary/replica fault")
	}
	pris := h.servers(epPrimary)
	pris[len(pris)-1].Close()
	h.res.Crashes++
	time.Sleep(ev.dur)
	if err := h.startPrimary(); err != nil {
		return fmt.Errorf("primary restart: %w", err)
	}
	return nil
}

func ctrKey(w int) []byte { return []byte(fmt.Sprintf("ctr-w%d", w)) }
func seqKey(w, i int) []byte {
	return []byte(fmt.Sprintf("w%d-%06d", w, i))
}
func u64val(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// txn writes worker w's unique key for seq and sets its counter to seq+1.
// Overwriting our own earlier indeterminate attempt is idempotent: the same
// value lands under the same keys.
func (h *harness) txn(w, seq int) func(engine.Txn) error {
	key, val := seqKey(w, seq), u64val(uint64(seq+1))
	return func(txn engine.Txn) error {
		if err := upsert(txn, h.tbl, key, val); err != nil {
			return err
		}
		return upsert(txn, h.tbl, ctrKey(w), val)
	}
}

func upsert(txn engine.Txn, tbl engine.Table, key, val []byte) error {
	if _, err := txn.Get(tbl, key); err == nil {
		return txn.Update(tbl, key, val)
	}
	return txn.Insert(tbl, key, val)
}

// reader repeatedly takes a snapshot and checks two monotonicity claims:
// the acked-frontier bound (values never below what was acked before the
// snapshot began) and per-reader non-regression while the client's observed
// epoch is stable.
func (h *harness) reader(id int, deadline time.Time) {
	nw := len(h.acked)
	prev := make([]uint64, nw)
	var prevEpoch uint64
	havePrev := false
	for time.Now().Before(deadline) {
		frontier := make([]uint64, nw)
		for w := range frontier {
			frontier[w] = h.acked[w].Load()
		}
		epBefore := h.cli.Epoch()
		vals, ok := h.readCounters()
		epAfter := h.cli.Epoch()
		if !ok {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		h.reads.Add(1)
		for w := 0; w < nw; w++ {
			if vals[w] < frontier[w] {
				h.violate("reader %d: counter w%d=%d below acked frontier %d (stale read of an acked commit)",
					id, w, vals[w], frontier[w])
			}
		}
		if havePrev && epBefore == epAfter && epBefore == prevEpoch {
			for w := 0; w < nw; w++ {
				if vals[w] < prev[w] {
					h.violate("reader %d: snapshot regression within epoch %d: counter w%d went %d -> %d",
						id, epBefore, w, prev[w], vals[w])
				}
			}
		}
		copy(prev, vals)
		prevEpoch = epAfter
		havePrev = epBefore == epAfter
		time.Sleep(time.Duration(1+id) * time.Millisecond)
	}
}

// readCounters reads every per-worker counter in one snapshot. A missing
// key reads as zero (the worker simply hasn't acked yet); any transport or
// availability error voids the whole snapshot — no invariant can be judged
// from a partial read.
func (h *harness) readCounters() ([]uint64, bool) {
	txn := h.cli.BeginReadOnly(h.cfg.Workers + h.cfg.Readers)
	defer txn.Abort()
	vals := make([]uint64, h.cfg.Workers)
	for w := range vals {
		v, err := txn.Get(h.tbl, ctrKey(w))
		switch {
		case err == nil:
			if len(v) == 8 {
				vals[w] = binary.LittleEndian.Uint64(v)
			}
		case errors.Is(err, engine.ErrNotFound):
			vals[w] = 0
		default:
			return nil, false
		}
	}
	return vals, true
}

// Run executes one nemesis schedule on the primary/replica topology and
// returns what it found. The error return is for harness failures (setup,
// unverifiable end state); invariant violations land in Result.Violations.
func Run(cfg Config) (*Result, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 2
	}
	h := &harness{
		fixture: newFixture(cfg.Seed, cfg.Workers, epClient, epPrimary, epReplica, epBackup),
		cfg:     cfg,
		res:     &Result{},
		stopSup: make(chan struct{}),
		supDone: make(chan struct{}),
	}

	// Primary over an in-memory WAL (group commit syncs into it before any
	// ack, so "durable" is meaningful within the run).
	db, err := core.Open(core.Config{WAL: wal.Config{Storage: wal.NewMemStorage()}})
	if err != nil {
		return nil, fmt.Errorf("nemesis: primary engine: %w", err)
	}
	defer db.Close()
	h.priDB = db
	defer h.close()
	if err := h.startPrimary(); err != nil {
		return nil, fmt.Errorf("nemesis: primary server: %w", err)
	}

	// Replica streaming through the fault network, supervised for
	// automatic promotion on primary silence.
	rep, err := repl.Start(repl.Config{
		PrimaryAddr:      epPrimary,
		Dial:             h.dialer(epReplica),
		DialTimeout:      150 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		Retry: engine.RetryPolicy{
			BaseDelay: 5 * time.Millisecond,
			MaxDelay:  50 * time.Millisecond,
			Jitter:    0.5,
			Seed:      cfg.Seed + 7,
		},
		Core: core.Config{WAL: smallWAL(wal.NewMemStorage())},
	})
	if err != nil {
		return nil, fmt.Errorf("nemesis: replica: %w", err)
	}
	defer rep.Close()
	h.rep = rep

	sup := &repl.Supervisor{
		R:              rep,
		SilenceTimeout: silenceTimeout,
		OnPromote: func(perr error) {
			if perr != nil {
				h.violate("harness: promotion failed: %v", perr)
				return
			}
			h.res.Promotions++
			h.startBackup()
		},
	}
	go func() { defer close(h.supDone); sup.Run(h.stopSup) }()

	// One shared client for workers, readers, and verification: its
	// observed-epoch high-water mark is what fences every Begin off a
	// deposed primary, and sharing it is what makes the acked-frontier
	// read check sound (the ack and the subsequent snapshot flow through
	// the same epoch state).
	cli, err := client.Dial(client.Options{
		Addr:              epPrimary,
		FallbackAddrs:     []string{epBackup},
		Dial:              h.dialer(epClient),
		DialTimeout:       150 * time.Millisecond,
		RequestTimeout:    250 * time.Millisecond,
		KeepaliveInterval: 50 * time.Millisecond,
		PoolSize:          2,
	})
	if err != nil {
		return nil, fmt.Errorf("nemesis: client: %w", err)
	}
	defer cli.Close()
	h.cli = cli
	if h.tbl = cli.CreateTable("nemesis"); h.tbl == nil {
		return nil, fmt.Errorf("nemesis: create table failed")
	}

	readers := make([]func(time.Time), cfg.Readers)
	for r := range readers {
		readers[r] = func(deadline time.Time) { h.reader(r, deadline) }
	}
	if err := h.run(h, cli, genSchedule(cfg.Seed, cfg.Duration), cfg.Duration, &h.res.Outcome, readers...); err != nil {
		return nil, err
	}
	h.res.Reads = int(h.reads.Load())
	h.res.FinalEpoch = cli.Epoch()
	return h.res, nil
}

// verify stops the failover supervisor and checks the end-state invariants
// on the healed network: every acked commit is readable (durability across
// failover), final counters are at or past the acked frontier, and the
// per-epoch write audits of old and new primaries are disjoint (single
// writer per epoch).
func (h *harness) verify() error {
	close(h.stopSup)
	<-h.supDone

	// Reads go through the shared client so epoch fencing routes them to
	// the authoritative server.
	h.check("verification reads", h.checkAcked)

	// Single-writer audit: per-epoch write-commit keys of every primary
	// incarnation vs the promoted server's.
	oldEpochs := map[uint64]uint64{}
	for _, srv := range h.servers(epPrimary) {
		for e, n := range srv.CommitEpochs() {
			oldEpochs[e] += n
		}
	}
	for _, srv := range h.servers(epBackup) {
		for e, n := range srv.CommitEpochs() {
			if n > 0 && oldEpochs[e] > 0 {
				h.violate("dual primary: epoch %d acked %d write commits on the old primary and %d on the promoted replica",
					e, oldEpochs[e], n)
			}
		}
	}
	return nil
}

// checkAcked reads every worker's acked keys and counter in one snapshot.
func (h *harness) checkAcked(report func(string, ...any)) error {
	txn := h.cli.BeginReadOnly(h.cfg.Workers + h.cfg.Readers + 1)
	defer txn.Abort()
	for w := range h.acked {
		acked := int(h.acked[w].Load())
		for i := 0; i < acked; i++ {
			v, err := txn.Get(h.tbl, seqKey(w, i))
			if err != nil && !errors.Is(err, engine.ErrNotFound) {
				return err
			}
			if err != nil || len(v) != 8 || binary.LittleEndian.Uint64(v) != uint64(i+1) {
				report("acked commit w%d seq %d lost (acked frontier %d)", w, i, acked)
			}
		}
		if acked == 0 {
			continue
		}
		v, err := txn.Get(h.tbl, ctrKey(w))
		switch {
		case errors.Is(err, engine.ErrNotFound):
			report("acked counter w%d missing entirely (frontier %d)", w, acked)
		case err != nil:
			return err
		case len(v) != 8 || binary.LittleEndian.Uint64(v) < uint64(acked):
			report("final counter w%d = %v below acked frontier %d", w, v, acked)
		}
	}
	return nil
}
