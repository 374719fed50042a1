// Shard nemesis: a deterministic chaos harness for the two-phase-commit
// path of the shard router. One RunShard assembles a two-shard cluster
// wired through internal/faultconn, points workers running cross-shard
// balance transfers at the router, and executes a seeded schedule of
// partitions, mid-frame cuts, participant crashes that lose everything
// since the last sync — some with the syncs held back until a transfer has
// committed on an acknowledgment the participant never made durable — and
// coordinator crashes injected at the two most hostile instants of 2PC:
// after every prepare has acked but before the decision is logged, and after
// the decision is durable but before any participant hears it. While the
// cluster burns, the harness checks the invariants DESIGN.md claims for
// distributed commit:
//
//   - Atomicity: transfers move balance between accounts on different
//     shards; the grand total is conserved at the end. A torn 2PC (one
//     shard committed, the other aborted) shifts the total and is caught
//     mechanically.
//
//   - Acked durability: every transfer whose retry loop returned nil is
//     marked by a unique key written in the same transaction; all acked
//     markers must be readable after the dust settles, no matter which
//     coordinator or participant crashed in between.
//
//   - Convergent recovery: after healing, draining the coordinator's
//     decision log (ResolveInDoubt) reaches a state with no prepared
//     transactions parked anywhere — in-doubt is a transient, not a leak.
//
// Transfers are idempotent under retry by construction: each (worker, seq)
// pair writes a marker key in the same transaction as the balance updates,
// and every retry first reads the marker — if a previous indeterminate
// attempt actually committed, the retry observes the marker and becomes a
// no-op. While a prepared transaction is still undecided its write locks
// block the retry's writes, so an in-doubt transfer can never double-apply.
package nemesis

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// Endpoint names on the shard-nemesis fault network: the router, and
// epShard(i) for shard i.
const epRouter = "router"

func epShard(i int) string { return fmt.Sprintf("shard%d", i) }

// ShardConfig parameterizes one shard-nemesis run. The zero value of every
// field gets a sensible default; only Seed is meaningfully distinct.
type ShardConfig struct {
	// Seed drives the fault schedule and all workload randomness.
	Seed uint64
	// Duration is the chaos window. Verification happens after it, on a
	// healed network with every server back up. Default 2s.
	Duration time.Duration
	// Workers is the number of concurrent transfer goroutines. Default 3.
	Workers int
	// Accounts is how many balance accounts live on each shard. Default 8.
	Accounts int
}

// ShardResult reports what one shard-nemesis run did and every invariant
// violation it found.
type ShardResult struct {
	Outcome
	InDoubt      int // commits that returned ErrTxnInDoubt to a worker
	ShardCrashes int // participant crash+restart cycles
	// UnsyncedCrashes counts the participant crashes that (timing aside)
	// destroyed a commit some worker had already been told about: the
	// participant's syncs were held, a transfer committed meanwhile.
	UnsyncedCrashes int
	CoordCrashes    int // injected coordinator crashes mid-2PC
	Resolved        int // in-doubt transactions driven to a decision
}

// shardHarness is the two-shard topology under the 2PC router.
type shardHarness struct {
	*fixture
	cfg ShardConfig
	res *ShardResult

	m *shard.Map
	// Each shard's engine logs to memory through a gate on its syncs; a
	// crash keeps what was synced and recovers a fresh engine from it.
	// Only the goroutine that calls RunShard, which also executes the
	// schedule, touches these.
	mems   [2]*wal.MemStorage
	gates  [2]*faultfs.SyncGate
	dbs    [2]*core.DB
	srvs   [2]*server.Server
	router *shard.Router
	tbl    engine.Table

	// accts[s] holds the account keys living on shard s.
	accts [2][][]byte
	total int64
	rngs  []*xrand.Rand // per worker: its transfers' accounts and amounts

	// One-shot arming of the router's coordinator-crash hooks. The armed
	// flag is consumed by the next cross-shard commit to reach that point.
	armPrepare  atomic.Bool
	armDecision atomic.Bool
}

func (h *shardHarness) startShard(i int) error {
	srv, err := h.serve(epShard(i), server.Config{
		DB:              h.dbs[i],
		ShardID:         uint32(i),
		ShardMapVersion: h.m.Version,
		ShardMapBlob:    h.m.EncodeBinary(),
	})
	if err != nil {
		return err
	}
	h.srvs[i] = srv
	return nil
}

// crashShard kills shard i as a power cut would: what its storage had synced
// is all that survives, and the engine startShard will serve is recovered
// from that image.
func (h *shardHarness) crashShard(i int) {
	if h.srvs[i] == nil {
		return
	}
	h.gates[i].Kill() // from here on nothing the dying server acks is durable
	image := h.mems[i].Crash()
	h.srvs[i].Close()
	h.srvs[i] = nil
	h.dbs[i].Close()
	gate := faultfs.NewSyncGate(image, 0)
	db, err := core.Recover(core.Config{WAL: smallWAL(gate)})
	if err != nil {
		h.violate("harness: shard %d recovery: %v", i, err)
		return
	}
	h.mems[i], h.gates[i], h.dbs[i] = image, gate, db
}

// holdSyncsUntilCommit holds shard i's syncs until a transfer commits behind
// them, on an on-apply ack whose log records the crash that follows destroys.
// Only a transfer already prepared can commit under the hold, so a hold that
// catches none is released — long enough for held syncs to drain and new
// prepares to land — and taken again, for up to a second.
func (h *shardHarness) holdSyncsUntilCommit(i int) {
	gate := h.gates[i]
	for end := time.Now().Add(time.Second); time.Now().Before(end); gate.Release() {
		time.Sleep(5 * time.Millisecond)
		_, before := h.router.CommitCounts()
		gate.Hold()
		for wait := time.Now().Add(20 * time.Millisecond); time.Now().Before(wait); time.Sleep(200 * time.Microsecond) {
			if _, now := h.router.CommitCounts(); now > before {
				h.res.UnsyncedCrashes++
				return
			}
		}
	}
}

// fault crashes a participant back to its last sync and restarts it, or
// crashes the coordinator at one of the two most hostile instants of 2PC
// and brings it back after ev.dur.
func (h *shardHarness) fault(ev event) error {
	switch ev.act {
	case actShardCrash, actShardCrashUnsynced:
		if ev.act == actShardCrashUnsynced {
			h.holdSyncsUntilCommit(ev.shard)
		}
		h.crashShard(ev.shard)
		h.res.ShardCrashes++
		time.Sleep(ev.dur)
		if err := h.startShard(ev.shard); err != nil {
			return fmt.Errorf("shard %d restart: %w", ev.shard, err)
		}
	case actCoordCrashPrepare, actCoordCrashDecision:
		arm := &h.armPrepare
		if ev.act == actCoordCrashDecision {
			arm = &h.armDecision
		}
		arm.Store(true)
		h.res.CoordCrashes++
		time.Sleep(ev.dur)
		// The coordinator process comes back: one synchronous pass over the
		// decision log. Failures are fine mid-chaos (the network may still
		// be burning); verify drains the log on a healed network.
		n, _ := h.router.ResolveInDoubt()
		h.res.Resolved += n
	default:
		return errors.New("not a shard fault")
	}
	return nil
}

func acctKey(i int) []byte    { return []byte(fmt.Sprintf("acct-%04d", i)) }
func xferKey(w, s int) []byte { return []byte(fmt.Sprintf("xfer-w%d-%06d", w, s)) }

func getBalance(txn engine.Txn, tbl engine.Table, key []byte) (int64, error) {
	v, err := txn.Get(tbl, key)
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("account %q holds %d bytes, want 8", key, len(v))
	}
	return int64(binary.LittleEndian.Uint64(v)), nil
}

const initialBalance = 1000

// assignAccounts probes candidate keys until each shard owns cfg.Accounts
// of them. Placement is the router's own whole-key hash, so the harness and
// the router always agree on where an account lives.
func (h *shardHarness) assignAccounts() {
	rule := h.m.RuleFor("acct")
	for i := 0; len(h.accts[0]) < h.cfg.Accounts || len(h.accts[1]) < h.cfg.Accounts; i++ {
		k := acctKey(i)
		s := h.m.ShardOf(rule, k)
		if len(h.accts[s]) < h.cfg.Accounts {
			h.accts[s] = append(h.accts[s], k)
		}
	}
	h.total = int64(2 * h.cfg.Accounts * initialBalance)
}

// txn moves balance between a random account on each shard. All of the
// transfer's randomness (direction, endpoints, amount) is drawn here, so
// the retries of one loop reuse it.
func (h *shardHarness) txn(w, seq int) func(engine.Txn) error {
	rng := h.rngs[w]
	src := h.accts[0][rng.Intn(len(h.accts[0]))]
	dst := h.accts[1][rng.Intn(len(h.accts[1]))]
	if rng.Intn(2) == 1 {
		src, dst = dst, src
	}
	amt := int64(1 + rng.Intn(50))
	marker := xferKey(w, seq)
	return func(txn engine.Txn) error {
		// Idempotence guard: a marker means an earlier indeterminate
		// attempt of this very transfer committed. Commit the no-op.
		if _, gerr := txn.Get(h.tbl, marker); gerr == nil {
			return nil
		} else if !errors.Is(gerr, engine.ErrNotFound) {
			return gerr
		}
		sb, gerr := getBalance(txn, h.tbl, src)
		if gerr != nil {
			return gerr
		}
		db, gerr := getBalance(txn, h.tbl, dst)
		if gerr != nil {
			return gerr
		}
		if uerr := txn.Update(h.tbl, src, u64val(uint64(sb-amt))); uerr != nil {
			return uerr
		}
		if uerr := txn.Update(h.tbl, dst, u64val(uint64(db+amt))); uerr != nil {
			return uerr
		}
		return txn.Insert(h.tbl, marker, u64val(uint64(amt)))
	}
}

// RunShard executes one shard-nemesis schedule and returns what it found.
// The error return is for harness failures (setup, unverifiable end state);
// invariant violations land in ShardResult.Violations.
func RunShard(cfg ShardConfig) (*ShardResult, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.Accounts <= 0 {
		cfg.Accounts = 8
	}
	h := &shardHarness{
		fixture: newFixture(cfg.Seed, cfg.Workers, epRouter, epShard(0), epShard(1)),
		cfg:     cfg,
		res:     &ShardResult{},
	}
	for w := 0; w < cfg.Workers; w++ {
		h.rngs = append(h.rngs, xrand.New2(cfg.Seed, uint64(w)+0x5a5a))
	}

	h.m = &shard.Map{
		Version: 1,
		Shards: []shard.ShardInfo{
			{Addr: epShard(0)},
			{Addr: epShard(1)},
		},
	}
	defer func() {
		h.close()
		for _, db := range h.dbs {
			if db != nil {
				db.Close()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		h.mems[i] = wal.NewMemStorage()
		h.gates[i] = faultfs.NewSyncGate(h.mems[i], 0)
		db, err := core.Open(core.Config{WAL: smallWAL(h.gates[i])})
		if err != nil {
			return nil, fmt.Errorf("nemesis: shard %d engine: %w", i, err)
		}
		h.dbs[i] = db
		if err := h.startShard(i); err != nil {
			return nil, fmt.Errorf("nemesis: shard %d server: %w", i, err)
		}
	}

	dlogDir, err := os.MkdirTemp("", "nemesis-dlog")
	if err != nil {
		return nil, fmt.Errorf("nemesis: decision log dir: %w", err)
	}
	defer os.RemoveAll(dlogDir)
	r, err := shard.NewRouter(h.m, shard.Options{
		PoolSize:          2,
		Dial:              h.dialer(epRouter),
		DialTimeout:       150 * time.Millisecond,
		RequestTimeout:    250 * time.Millisecond,
		KeepaliveInterval: 50 * time.Millisecond,
		DecisionLog:       filepath.Join(dlogDir, "decisions.log"),
		CrashAfterPrepare: func(gid []byte) error {
			if h.armPrepare.CompareAndSwap(true, false) {
				return errors.New("nemesis: injected coordinator crash after prepare")
			}
			return nil
		},
		CrashAfterDecision: func(gid []byte) error {
			if h.armDecision.CompareAndSwap(true, false) {
				return errors.New("nemesis: injected coordinator crash after decision")
			}
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("nemesis: router: %w", err)
	}
	defer r.Close()
	h.router = r
	if h.tbl = r.CreateTable("acct"); h.tbl == nil {
		return nil, fmt.Errorf("nemesis: create table failed")
	}
	h.assignAccounts()
	if err := h.seedBalances(); err != nil {
		return nil, fmt.Errorf("nemesis: seed balances: %w", err)
	}

	if err := h.run(h, h.router, genShardSchedule(cfg.Seed, cfg.Duration), cfg.Duration, &h.res.Outcome); err != nil {
		return nil, err
	}
	h.res.InDoubt = int(h.inDoubt.Load())
	return h.res, nil
}

// seedBalances funds every account in one transaction — itself a
// cross-shard 2PC commit, executed on the still-healthy network.
func (h *shardHarness) seedBalances() error {
	policy := engine.RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: h.cfg.Seed + 3}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return policy.Run(ctx, h.router, h.cfg.Workers, func(txn engine.Txn) error {
		for s := 0; s < 2; s++ {
			for _, k := range h.accts[s] {
				if err := txn.Insert(h.tbl, k, u64val(initialBalance)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// verify revives any shard that is still down, drives every decision-log
// entry to completion, and checks the end-state invariants. Failing to
// drain is itself a violation: in-doubt state must be transient once the
// cluster is reachable.
func (h *shardHarness) verify() error {
	for i, srv := range h.srvs {
		if srv == nil {
			if err := h.startShard(i); err != nil {
				return fmt.Errorf("nemesis: shard %d revive: %w", i, err)
			}
		}
	}
	h.check("in-doubt drain", func(func(string, ...any)) error {
		n, err := h.router.ResolveInDoubt()
		h.res.Resolved += n
		if err == nil && n > 0 {
			err = fmt.Errorf("resolved %d, more may remain", n)
		}
		return err
	})
	h.check("verification reads", h.checkBalances)
	return nil
}

// checkBalances checks conservation of the balance total (cross-shard
// atomicity — a torn commit shifts the sum) and acked durability (every
// acked transfer's marker is readable).
func (h *shardHarness) checkBalances(report func(string, ...any)) error {
	txn := h.router.BeginReadOnly(h.cfg.Workers + 1)
	defer txn.Abort()
	var sum int64
	for s := 0; s < 2; s++ {
		for _, k := range h.accts[s] {
			bal, err := getBalance(txn, h.tbl, k)
			if err != nil {
				return err
			}
			sum += bal
		}
	}
	if sum != h.total {
		report("conservation broken: balances sum to %d, want %d (a cross-shard commit tore)", sum, h.total)
	}
	for w := range h.acked {
		acked := int(h.acked[w].Load())
		for s := 0; s < acked; s++ {
			if _, err := txn.Get(h.tbl, xferKey(w, s)); errors.Is(err, engine.ErrNotFound) {
				report("acked transfer w%d seq %d lost (acked frontier %d)", w, s, acked)
			} else if err != nil {
				return err
			}
		}
	}
	return nil
}
