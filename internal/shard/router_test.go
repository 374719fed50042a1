package shard_test

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/engine/enginetest"
	"ermia/internal/faultfs"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/wal"
)

// cluster is N loopback ermia-server shards plus the map that routes to
// them. Engines are in-process over storages whose syncs the test controls:
// restartShard models a server crash that keeps the engine, crashShard a
// machine crash that keeps only what was synced.
type cluster struct {
	t     testing.TB
	m     *shard.Map
	over  func(wal.Storage) core.Config
	mems  []*wal.MemStorage
	gates []*faultfs.SyncGate
	dbs   []*core.DB
	srvs  []*server.Server
}

func walOver(st wal.Storage) wal.Config {
	return wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st}
}

func startCluster(t testing.TB, n int, rules []shard.TableRule) *cluster {
	return startClusterOn(t, n, rules, 0, func(st wal.Storage) core.Config { return core.Config{WAL: walOver(st)} })
}

// startClusterOn is startCluster over commit devices that take syncDelay per
// sync, each engine under the configuration over builds.
func startClusterOn(t testing.TB, n int, rules []shard.TableRule, syncDelay time.Duration, over func(wal.Storage) core.Config) *cluster {
	t.Helper()
	cl := &cluster{t: t, m: &shard.Map{Version: 1, Rules: rules}, over: over}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		cl.m.Shards = append(cl.m.Shards, shard.ShardInfo{Addr: ln.Addr().String()})
	}
	for i, ln := range lns {
		mem := wal.NewMemStorage()
		gate := faultfs.NewSyncGate(mem, syncDelay)
		db, err := core.Open(over(gate))
		if err != nil {
			t.Fatal(err)
		}
		cl.mems = append(cl.mems, mem)
		cl.gates = append(cl.gates, gate)
		srv, err := server.New(cl.shardConfig(db, i))
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		cl.dbs = append(cl.dbs, db)
		cl.srvs = append(cl.srvs, srv)
	}
	t.Cleanup(func() {
		for i := range cl.srvs {
			cl.gates[i].Release()
			cl.srvs[i].Close()
			cl.dbs[i].Close()
		}
	})
	return cl
}

func (cl *cluster) shardConfig(db *core.DB, i int) server.Config {
	return server.Config{
		DB:              db,
		ShardID:         uint32(i),
		ShardMapVersion: cl.m.Version,
		ShardMapBlob:    cl.m.EncodeBinary(),
	}
}

// restartShard crashes shard i's server and starts a fresh incarnation on
// the same address over the same engine: parked prepared transactions are
// aborted at teardown and re-established from their durable prepare
// records by the new server's recovery.
func (cl *cluster) restartShard(i int) {
	cl.t.Helper()
	cl.srvs[i].Close()
	cl.serveShard(i)
}

// crashShard restarts shard i from what its storage had synced (everything
// written since, or while its gate was held, is lost): a fresh engine
// recovered from that image, a fresh server on the same address.
func (cl *cluster) crashShard(i int) {
	cl.t.Helper()
	cl.gates[i].Kill()
	image := cl.mems[i].Crash()
	cl.srvs[i].Close()
	cl.dbs[i].Close()
	cl.mems[i], cl.gates[i] = image, faultfs.NewSyncGate(image, 0)
	db, err := core.Recover(cl.over(cl.gates[i]))
	if err != nil {
		cl.t.Fatal(err)
	}
	cl.dbs[i] = db
	cl.serveShard(i)
}

// serveShard starts a server for shard i's engine on the shard's address.
func (cl *cluster) serveShard(i int) {
	cl.t.Helper()
	srv, err := server.New(cl.shardConfig(cl.dbs[i], i))
	if err != nil {
		cl.t.Fatal(err)
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", cl.m.Shards[i].Addr)
		if err == nil {
			break
		}
		if attempt > 50 {
			cl.t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv.Serve(ln)
	cl.srvs[i] = srv
}

func (cl *cluster) router(t testing.TB, opts shard.Options) *shard.Router {
	t.Helper()
	if opts.PoolSize == 0 {
		opts.PoolSize = 4
	}
	r, err := shard.NewRouter(cl.m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// shardKey returns a key that hashes to the wanted shard under table's rule.
func shardKey(t testing.TB, m *shard.Map, table string, want int) []byte {
	t.Helper()
	rule := m.RuleFor(table)
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if m.ShardOf(rule, k) == want {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", want)
	return nil
}

// TestConformanceSharded runs the full engine conformance suite through the
// shard router, once against a single shard (everything on the fast path)
// and once against three (routing, merge scans, and cross-shard 2PC all in
// play). The sharded database must be indistinguishable from a local one.
func TestConformanceSharded(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("N%d", n), func(t *testing.T) {
			enginetest.Run(t, func(t *testing.T) engine.DB {
				cl := startCluster(t, n, nil)
				return cl.router(t, shard.Options{})
			})
		})
	}
}

func TestCrossShardCommitAndAbort(t *testing.T) {
	cl := startCluster(t, 2, nil)
	r := cl.router(t, shard.Options{})
	tbl := r.CreateTable("t")
	a := shardKey(t, cl.m, "t", 0)
	b := shardKey(t, cl.m, "t", 1)

	txn := r.Begin(0)
	if err := txn.Insert(tbl, a, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(tbl, b, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("cross-shard commit: %v", err)
	}
	if fast, cross := r.CommitCounts(); fast != 0 || cross != 1 {
		t.Errorf("commit counts fast=%d cross=%d, want 0/1", fast, cross)
	}

	check := r.BeginReadOnly(1)
	for _, kv := range []struct{ k, v []byte }{{a, []byte("va")}, {b, []byte("vb")}} {
		got, err := check.Get(tbl, kv.k)
		if err != nil || string(got) != string(kv.v) {
			t.Fatalf("Get(%q) = %q, %v", kv.k, got, err)
		}
	}
	check.Abort()

	// A cross-shard abort must leave no trace on either shard.
	txn = r.Begin(0)
	if err := txn.Update(tbl, a, []byte("xa")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Update(tbl, b, []byte("xb")); err != nil {
		t.Fatal(err)
	}
	txn.Abort()
	check = r.BeginReadOnly(1)
	if got, _ := check.Get(tbl, a); string(got) != "va" {
		t.Errorf("after abort a = %q, want va", got)
	}
	if got, _ := check.Get(tbl, b); string(got) != "vb" {
		t.Errorf("after abort b = %q, want vb", got)
	}
	check.Abort()

	// A write confined to one shard takes the fast path: no 2PC.
	txn = r.Begin(0)
	if err := txn.Update(tbl, a, []byte("va2")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if fast, cross := r.CommitCounts(); fast != 1 || cross != 1 {
		t.Errorf("commit counts fast=%d cross=%d, want 1/1", fast, cross)
	}
}

// TestMergeScanAcrossShards checks the global ordering contract when a
// range spans every shard.
func TestMergeScanAcrossShards(t *testing.T) {
	cl := startCluster(t, 3, nil)
	r := cl.router(t, shard.Options{})
	tbl := r.CreateTable("t")

	const rows = 700 // several merge-scan pages per shard
	for lo := 0; lo < rows; lo += 100 {
		txn := r.Begin(0)
		for i := lo; i < lo+100 && i < rows; i++ {
			if err := txn.Insert(tbl, []byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	txn := r.BeginReadOnly(0)
	defer txn.Abort()
	var prev string
	n := 0
	err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
		if string(k) <= prev {
			t.Fatalf("scan out of order: %q after %q", k, prev)
		}
		prev = string(k)
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("scan visited %d rows, want %d", n, rows)
	}

	// Early stop must hold across the merged streams too.
	n = 0
	if err := txn.Scan(tbl, []byte("key-00100"), nil, func(k, v []byte) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("early-stopped scan visited %d rows, want 10", n)
	}
}

// TestReplicatedTableFanout checks that a write to a replicated table lands
// on every shard's copy.
func TestReplicatedTableFanout(t *testing.T) {
	cl := startCluster(t, 3, []shard.TableRule{{Table: "cat", Replicated: true}})
	r := cl.router(t, shard.Options{})
	tbl := r.CreateTable("cat")

	txn := r.Begin(0)
	if err := txn.Insert(tbl, []byte("item-1"), []byte("anvil")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	for i, sh := range cl.m.Shards {
		c, err := client.Dial(client.Options{Addr: sh.Addr})
		if err != nil {
			t.Fatal(err)
		}
		ct := c.OpenTable("cat")
		if ct == nil {
			t.Fatalf("shard %d: table missing", i)
		}
		ctxn := c.BeginReadOnly(0)
		got, err := ctxn.Get(ct, []byte("item-1"))
		if err != nil || string(got) != "anvil" {
			t.Errorf("shard %d copy = %q, %v", i, got, err)
		}
		cxnAbortAndClose(cxn{ctxn, c})
	}
}

type cxn struct {
	txn engine.Txn
	c   *client.Client
}

func cxnAbortAndClose(x cxn) {
	x.txn.Abort()
	x.c.Close()
}

// TestShardMapVersionFence deploys servers under map version 1 and routes
// with a map claiming version 2: prepares must be refused with the typed
// engine.ErrShardMoved, and VerifyShards must catch it at dial time.
func TestShardMapVersionFence(t *testing.T) {
	cl := startCluster(t, 2, nil)
	stale := &shard.Map{Version: 2, Shards: cl.m.Shards, Rules: cl.m.Rules}

	r, err := shard.NewRouter(stale, shard.Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tbl := r.CreateTable("t")
	a := shardKey(t, stale, "t", 0)
	b := shardKey(t, stale, "t", 1)
	txn := r.Begin(0)
	if err := txn.Insert(tbl, a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(tbl, b, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, engine.ErrShardMoved) {
		t.Fatalf("cross-shard commit under stale map = %v, want ErrShardMoved", err)
	}

	// The failed prepare aborted cleanly everywhere: a correctly-versioned
	// router can write the same keys immediately.
	good := cl.router(t, shard.Options{})
	gt := good.CreateTable("t")
	txn2 := good.Begin(0)
	if err := txn2.Insert(gt, a, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Insert(gt, b, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatalf("commit after fenced abort: %v", err)
	}

	if _, err := shard.NewRouter(stale, shard.Options{VerifyShards: true}); !errors.Is(err, engine.ErrShardMoved) {
		t.Fatalf("VerifyShards under stale map = %v, want ErrShardMoved", err)
	}
}

// TestInDoubtRecovery kills the coordinator at the two most hostile
// instants of two-phase commit and proves a fresh coordinator over the same
// decision log drives both shards to the same outcome: presumed abort when
// no decision was logged, commit when one was.
func TestInDoubtRecovery(t *testing.T) {
	cases := []struct {
		name          string
		afterDecision bool // crash point; also the expected outcome (commit)
	}{
		{"CrashAfterPrepare_PresumesAbort", false},
		{"CrashAfterDecision_DrivesCommit", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := startCluster(t, 2, nil)
			dlogPath := filepath.Join(t.TempDir(), "decisions.log")
			crash := errors.New("simulated coordinator crash")
			opts := shard.Options{PoolSize: 2, DecisionLog: dlogPath}
			if tc.afterDecision {
				opts.CrashAfterDecision = func([]byte) error { return crash }
			} else {
				opts.CrashAfterPrepare = func([]byte) error { return crash }
			}
			r1, err := shard.NewRouter(cl.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			tbl := r1.CreateTable("t")
			a := shardKey(t, cl.m, "t", 0)
			b := shardKey(t, cl.m, "t", 1)

			txn := r1.Begin(0)
			if err := txn.Insert(tbl, a, []byte("va")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Insert(tbl, b, []byte("vb")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); !errors.Is(err, engine.ErrTxnInDoubt) {
				t.Fatalf("commit through crash hook = %v, want ErrTxnInDoubt", err)
			}
			r1.Close()

			// While in doubt: the writes are invisible (undecided) and the
			// prepared transaction's locks block conflicting writers.
			probe := cl.router(t, shard.Options{PoolSize: 2})
			pt := probe.OpenTable("t")
			ro := probe.BeginReadOnly(1)
			if _, err := ro.Get(pt, a); !errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("in-doubt write visible: Get = %v, want ErrNotFound", err)
			}
			ro.Abort()
			w := probe.Begin(1)
			if err := w.Insert(pt, a, []byte("squat")); err == nil {
				t.Fatal("conflicting insert succeeded while key was prepared")
			}
			w.Abort()

			// Recovery: a new coordinator over the same decision log.
			r2, err := shard.NewRouter(cl.m, shard.Options{PoolSize: 2, DecisionLog: dlogPath})
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if _, err := r2.ResolveInDoubt(); err != nil {
				t.Fatalf("ResolveInDoubt: %v", err)
			}

			rt := r2.OpenTable("t")
			check := r2.BeginReadOnly(0)
			ga, errA := check.Get(rt, a)
			gb, errB := check.Get(rt, b)
			check.Abort()
			if tc.afterDecision {
				if errA != nil || string(ga) != "va" || errB != nil || string(gb) != "vb" {
					t.Fatalf("recovered commit lost: a=%q(%v) b=%q(%v)", ga, errA, gb, errB)
				}
			} else {
				if !errors.Is(errA, engine.ErrNotFound) || !errors.Is(errB, engine.ErrNotFound) {
					t.Fatalf("presumed abort left data: a=%q(%v) b=%q(%v)", ga, errA, gb, errB)
				}
				// Locks are gone: the same keys are writable again.
				txn := r2.Begin(0)
				if err := txn.Insert(rt, a, []byte("fresh")); err != nil {
					t.Fatalf("insert after recovered abort: %v", err)
				}
				if err := txn.Insert(rt, b, []byte("fresh")); err != nil {
					t.Fatalf("insert after recovered abort: %v", err)
				}
				if err := txn.Commit(); err != nil {
					t.Fatalf("commit after recovered abort: %v", err)
				}
			}
		})
	}
}

// TestPreparedSurvivesParticipantRestart crashes BOTH participants while a
// committed-but-undelivered decision is outstanding: the new server
// incarnations must re-establish the prepared transaction from its durable
// prepare record, and recovery must still drive the commit everywhere.
func TestPreparedSurvivesParticipantRestart(t *testing.T) {
	cl := startCluster(t, 2, nil)
	dlogPath := filepath.Join(t.TempDir(), "decisions.log")
	crash := errors.New("simulated coordinator crash")
	r1, err := shard.NewRouter(cl.m, shard.Options{
		PoolSize:           2,
		DecisionLog:        dlogPath,
		CrashAfterDecision: func([]byte) error { return crash },
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := r1.CreateTable("t")
	a := shardKey(t, cl.m, "t", 0)
	b := shardKey(t, cl.m, "t", 1)
	txn := r1.Begin(0)
	if err := txn.Insert(tbl, a, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(tbl, b, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, engine.ErrTxnInDoubt) {
		t.Fatalf("commit through crash hook = %v, want ErrTxnInDoubt", err)
	}
	r1.Close()

	cl.restartShard(0)
	cl.restartShard(1)

	r2, err := shard.NewRouter(cl.m, shard.Options{PoolSize: 2, DecisionLog: dlogPath})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.ResolveInDoubt(); err != nil {
		t.Fatalf("ResolveInDoubt after participant restart: %v", err)
	}
	rt := r2.OpenTable("t")
	check := r2.BeginReadOnly(0)
	defer check.Abort()
	for _, kv := range []struct{ k, v string }{{string(a), "va"}, {string(b), "vb"}} {
		got, err := check.Get(rt, []byte(kv.k))
		if err != nil || string(got) != kv.v {
			t.Fatalf("after restart Get(%q) = %q, %v; want %q", kv.k, got, err, kv.v)
		}
	}
}

// TestPoolStatsThroughRouter sanity-checks the satellite pool counters are
// visible through the router.
func TestPoolStatsThroughRouter(t *testing.T) {
	cl := startCluster(t, 2, nil)
	r := cl.router(t, shard.Options{})
	tbl := r.CreateTable("t")
	txn := r.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	stats := r.PoolStats()
	if len(stats) != 2 {
		t.Fatalf("PoolStats len = %d, want 2", len(stats))
	}
	var reqs uint64
	for _, s := range stats {
		reqs += s.Requests
	}
	if reqs == 0 {
		t.Error("pool counters never incremented")
	}
}

// TestCrossShardWriteSkewUnderSSN pins today's contract for a write skew
// that 2PC carries past the certifier (ROADMAP item 1). Both shards run
// SSN. T1 reads a and writes b, T2 reads b and writes a, and both rw-edges
// lie on shard 0; each transaction also writes its own key on shard 1, so
// both take two-phase commit. Shard 0 certifies nothing at prepare. T1
// commits. T2's SSN check runs only when its commit decision is applied,
// after the coordinator logged C; it fails there, so T2's Commit reports
// the transaction in doubt, and the resolver's retry replays T2's writes
// without their reads. Both commit and the skew stands. Item 1b validates
// at prepare and flips this test: T2 must abort cleanly.
func TestCrossShardWriteSkewUnderSSN(t *testing.T) {
	cl := startClusterOn(t, 2, nil, 0, func(st wal.Storage) core.Config {
		return core.Config{WAL: walOver(st), Serializable: true}
	})
	r := cl.router(t, shard.Options{})
	tbl := r.CreateTable("t")
	var on [2][][]byte // two keys on each shard
	for i := 0; len(on[0]) < 2 || len(on[1]) < 2; i++ {
		k := []byte(fmt.Sprintf("skew-%03d", i))
		s := cl.m.ShardOf(cl.m.RuleFor("t"), k)
		on[s] = append(on[s], k)
	}
	a, b, c1, c2 := on[0][0], on[0][1], on[1][0], on[1][1]
	seed := r.Begin(0)
	for _, k := range [][]byte{a, b} {
		if err := seed.Insert(tbl, k, []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	t1, t2 := r.Begin(0), r.Begin(0)
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := t1.Get(tbl, a)
	step(err)
	_, err = t2.Get(tbl, b)
	step(err)
	step(t1.Update(tbl, b, []byte("t1")))
	step(t2.Update(tbl, a, []byte("t2")))
	step(t1.Insert(tbl, c1, []byte("t1")))
	step(t2.Insert(tbl, c2, []byte("t2")))
	step(t1.Commit())
	if err := t2.Commit(); !errors.Is(err, engine.ErrTxnInDoubt) {
		t.Fatalf("T2 commit: %v; want it in doubt (item 1b: a clean abort)", err)
	}
	want := map[string]string{string(a): "t2", string(b): "t1", string(c1): "t1", string(c2): "t2"}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, err := r.ResolveInDoubt(); err != nil {
			t.Fatal(err)
		}
		check := r.BeginReadOnly(0)
		got := map[string]string{}
		for k := range want {
			v, _ := check.Get(tbl, []byte(k))
			got[k] = string(v)
		}
		check.Abort()
		if fmt.Sprint(got) == fmt.Sprint(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after resolution the keys read %v; want both writes, the skew: %v", got, want)
		}
	}
	if _, cross := r.CommitCounts(); cross < 1 {
		t.Fatal("T1 committed without 2PC") // T2's in-doubt report shows it took 2PC
	}
}
