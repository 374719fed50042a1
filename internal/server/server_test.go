package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/server"
	"ermia/internal/silo"
	"ermia/internal/wal"
)

func openCore(t testing.TB, cfg core.Config) *core.DB {
	t.Helper()
	if cfg.WAL.SegmentSize == 0 {
		cfg.WAL = wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: cfg.WAL.Storage}
	}
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func serve(t testing.TB, db engine.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dial(t testing.TB, addr string, pool int) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Options{Addr: addr, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRunWithRetryOverWire drives the engine retry loop through the network
// stack under real contention: concurrent remote increments of one counter.
// Write-write conflicts come back as typed retryable statuses, so the
// unmodified engine.RunWithRetry converges to the exact total.
func TestRunWithRetryOverWire(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{})
	c := dial(t, addr, 4)

	tbl := c.CreateTable("counters")
	seed := c.Begin(0)
	if err := seed.Insert(tbl, []byte("n"), []byte("0")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers, per = 8, 25
	policy := engine.RetryPolicy{BaseDelay: 100 * time.Microsecond}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := policy.Run(context.Background(), c, id, func(txn engine.Txn) error {
					v, err := txn.Get(tbl, []byte("n"))
					if err != nil {
						return err
					}
					n, _ := strconv.Atoi(string(v))
					return txn.Update(tbl, []byte("n"), []byte(strconv.Itoa(n+1)))
				})
				if err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	txn := c.BeginReadOnly(0)
	defer txn.Abort()
	v, err := txn.Get(tbl, []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := strconv.Atoi(string(v)); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestGracefulDrainLosesNoAckedCommit shuts the server down under full
// commit load, then recovers the database from its log directory: every
// commit acknowledged before or during the drain must be in the recovered
// store. This is the drain contract — in-flight transactions finish, owed
// acknowledgments flush, and only then do connections close.
func TestGracefulDrainLosesNoAckedCommit(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := openCore(t, core.Config{WAL: wal.Config{Storage: st}})
	srv, addr := serve(t, db, server.Config{})
	c := dial(t, addr, 4)

	tbl := c.CreateTable("t")
	var mu sync.Mutex
	var acked []string
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%04d", id, i)
				txn := c.Begin(id)
				err := txn.Insert(tbl, []byte(key), []byte("v"))
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Abort()
				}
				if err == nil {
					mu.Lock()
					acked = append(acked, key)
					mu.Unlock()
					continue
				}
				// Drain refusals and teardown races must stay inside the
				// retryable/unavailable parts of the taxonomy.
				if !engine.IsRetryable(err) && engine.Classify(err) != engine.OutcomeUnavailable {
					t.Errorf("commit %s: %v (%v)", key, err, engine.Classify(err))
				}
				return
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // commits flowing
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	close(stop)
	wg.Wait()

	stats := srv.Stats()
	if stats.OpenTxns != 0 || stats.Conns != 0 {
		t.Fatalf("after drain: %d conns, %d open txns", stats.Conns, stats.OpenTxns)
	}
	if len(acked) == 0 {
		t.Fatal("no commits acknowledged before drain; test proves nothing")
	}
	db.Close()

	st2, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := core.Recover(core.Config{WAL: wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st2}})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2 := db2.OpenTable("t")
	if tbl2 == nil {
		t.Fatal("table lost across recovery")
	}
	txn := db2.BeginReadOnly(0)
	defer txn.Abort()
	for _, key := range acked {
		if _, err := txn.Get(tbl2, []byte(key)); err != nil {
			t.Fatalf("acked commit %s lost by graceful drain: %v", key, err)
		}
	}
}

// TestDrainRefusesNewTransactions: Shutdown waits for an open transaction,
// refuses new Begins with the typed shutdown status, and completes once the
// straggler commits.
func TestDrainRefusesNewTransactions(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{})
	c := dial(t, addr, 1)

	tbl := c.CreateTable("t")
	straggler := c.Begin(0)
	if err := straggler.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// Wait until the drain is visible at the protocol level.
	deadline := time.Now().Add(2 * time.Second)
	for {
		txn := c.Begin(0)
		err := txn.Insert(tbl, []byte("x"), []byte("y"))
		if errors.Is(err, engine.ErrShutdown) {
			if engine.Classify(err) != engine.OutcomeUnavailable {
				t.Fatalf("shutdown classifies as %v", engine.Classify(err))
			}
			txn.Abort()
			break
		}
		txn.Abort()
		if time.Now().After(deadline) {
			t.Fatal("drain never became visible to Begin")
		}
		time.Sleep(time.Millisecond)
	}

	if err := straggler.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestTeardownAbortsOrphans: a client that vanishes mid-transaction must not
// leak engine resources. The orphaned transactions go through the normal
// abort path: the engine abort counter moves, no head version keeps an
// in-flight TID stamp, and the server's slot pool refills (a full round of
// new transactions succeeds).
func TestTeardownAbortsOrphans(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{Workers: 8})
	c := dial(t, addr, 1)

	tbl := c.CreateTable("t")
	for i := 0; i < 8; i++ {
		txn := c.Begin(0)
		if err := txn.Insert(tbl, []byte(fmt.Sprintf("orphan%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		// Transaction deliberately left open.
	}
	abortsBefore := db.Stats().Aborts.Load()
	c.Close() // vanish with 8 transactions holding all 8 slots

	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().OpenTxns != 0 || srv.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("teardown leaked: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := db.Stats().Aborts.Load() - abortsBefore; got != 8 {
		t.Fatalf("engine aborts moved by %d, want 8", got)
	}
	coreTbl := db.OpenTable("t").(*core.Table)
	if n := coreTbl.CountInFlightHeads(); n != 0 {
		t.Fatalf("%d head versions still carry in-flight TID stamps", n)
	}

	// All 8 slots must be back: a fresh client can hold 8 concurrent txns.
	c2 := dial(t, addr, 1)
	txns := make([]engine.Txn, 8)
	for i := range txns {
		txns[i] = c2.Begin(0)
		if err := txns[i].Insert(tbl, []byte(fmt.Sprintf("new%d", i)), []byte("v")); err != nil {
			t.Fatalf("slot %d not reclaimed: %v", i, err)
		}
	}
	for _, txn := range txns {
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverloadedBegin: an exhausted worker-slot pool refuses Begin with the
// retryable overload status instead of queueing (which could deadlock a
// pipeline behind its own transactions).
func TestOverloadedBegin(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{Workers: 1})
	c := dial(t, addr, 1)

	tbl := c.CreateTable("t")
	holder := c.Begin(0)
	if err := holder.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	txn := c.Begin(1)
	err := txn.Insert(tbl, []byte("k2"), []byte("v"))
	if !errors.Is(err, engine.ErrOverloaded) || !engine.IsRetryable(err) {
		t.Fatalf("begin over full pool = %v, want retryable ErrOverloaded", err)
	}
	txn.Abort()

	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	// Slot released: next transaction succeeds.
	txn = c.Begin(1)
	if err := txn.Insert(tbl, []byte("k2"), []byte("v")); err != nil {
		t.Fatalf("begin after release: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedModeOverWire: a log-device fault degrades the engine; the
// server keeps serving reads, refuses writes with the typed degraded status,
// reports Degraded health, and heals through the admin Reattach frame. Both
// engines are served with a plain Config: health, durability and reattach
// come from the engine itself.
func TestDegradedModeOverWire(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T, st wal.Storage) engine.DB
	}{
		{"core", func(t *testing.T, st wal.Storage) engine.DB {
			return openCore(t, core.Config{WAL: wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st}})
		}},
		{"silo", func(t *testing.T, st wal.Storage) engine.DB {
			db, err := silo.Open(silo.Config{EpochInterval: time.Hour, Storage: st})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInjector(wal.NewMemStorage(), faultfs.Plan{})
			srv, addr := serve(t, tc.open(t, inj), server.Config{})
			c := dial(t, addr, 1)

			tbl := c.CreateTable("t")
			txn := c.Begin(0)
			if err := txn.Insert(tbl, []byte("before"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			durable := srv.Stats().DurableOffset
			if durable == 0 {
				t.Fatal("durable offset 0 after an acknowledged commit")
			}

			// Kill the device, then push a write through so the flush trips
			// the fault; its commit acknowledgment carries whatever the dying
			// device surfaced, and the engine degrades.
			inj.SetFailOp(inj.OpCount() + 1)
			trigger := c.Begin(0)
			if err := trigger.Insert(tbl, []byte("trigger"), []byte("v")); err == nil {
				trigger.Commit() // durability outcome indeterminate; error expected
			} else {
				trigger.Abort()
			}
			var state engine.HealthState
			var cause string
			deadline := time.Now().Add(2 * time.Second)
			for {
				var err error
				state, cause, err = c.Health()
				if err != nil {
					t.Fatalf("health over wire: %v", err)
				}
				if state == engine.Degraded {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("engine never degraded: state=%v", state)
				}
				time.Sleep(time.Millisecond)
			}
			if cause == "" {
				t.Fatal("degraded health reported no cause")
			}

			// Reads still commit; writes fail with the typed degraded error.
			ro := c.BeginReadOnly(0)
			if _, err := ro.Get(tbl, []byte("before")); err != nil {
				t.Fatalf("degraded read: %v", err)
			}
			if err := ro.Commit(); err != nil {
				t.Fatalf("degraded read-only commit: %v", err)
			}
			w := c.Begin(0)
			err := w.Insert(tbl, []byte("during"), []byte("v"))
			if err == nil {
				err = w.Commit()
			} else {
				w.Abort()
			}
			if !errors.Is(err, engine.ErrReadOnlyDegraded) {
				t.Fatalf("degraded write = %v, want ErrReadOnlyDegraded", err)
			}
			if engine.Classify(err) != engine.OutcomeUnavailable {
				t.Fatalf("degraded write classifies as %v", engine.Classify(err))
			}

			// Heal the device, then the engine, over the admin frame.
			inj.Heal()
			if _, err := c.Reattach(); err != nil {
				t.Fatalf("reattach over wire: %v", err)
			}
			if state, _, _ := c.Health(); state != engine.Healthy {
				t.Fatalf("health after reattach = %v", state)
			}
			txn = c.Begin(0)
			if err := txn.Insert(tbl, []byte("after"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatalf("commit after reattach: %v", err)
			}
			st, err := c.ServerStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.DurableOffset <= durable {
				t.Fatalf("durable offset %d after healed commit, want past %d", st.DurableOffset, durable)
			}
		})
	}
}

// TestNewRefusesNonDurableEngine: a server acknowledges commits through its
// engine's WaitDurable, so an engine without the durability capability is
// refused at New rather than silently acked.
func TestNewRefusesNonDurableEngine(t *testing.T) {
	db := openCore(t, core.Config{})
	if _, err := server.New(server.Config{DB: struct{ engine.DB }{db}}); err == nil {
		t.Fatal("server.New accepted an engine that does not implement engine.Durable")
	}
}

// TestGroupCommitBatches: under concurrent commit load the group committer
// must acknowledge more commits than it takes WaitDurable wakeups —
// otherwise it is not amortizing anything.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := openCore(t, core.Config{WAL: wal.Config{Storage: st}})
	_, addr := serve(t, db, server.Config{})
	srvStatsClient := dial(t, addr, 4)

	tbl := srvStatsClient.CreateTable("t")
	const workers, per = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := srvStatsClient.Begin(id)
				if err := txn.Insert(tbl, []byte(fmt.Sprintf("w%d-%03d", id, i)), []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	stats, err := srvStatsClient.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupCommits < workers*per {
		t.Fatalf("group committer acked %d of %d commits", stats.GroupCommits, workers*per)
	}
	if stats.GroupBatches >= stats.GroupCommits {
		t.Fatalf("no batching: %d batches for %d commits", stats.GroupBatches, stats.GroupCommits)
	}
	t.Logf("group commit: %d commits in %d batches (%.1f/batch), durable=%d",
		stats.GroupCommits, stats.GroupBatches,
		float64(stats.GroupCommits)/float64(stats.GroupBatches), stats.DurableOffset)
}

// TestServeSiloGroupDurability serves the Silo baseline in group mode. Its
// WaitDurable is the committer's device wait, so a write commit is acked
// through a group batch and a failed value-log sync comes back as that
// commit's error; a read-only commit waits for nothing and still gets OK.
func TestServeSiloGroupDurability(t *testing.T) {
	inj := faultfs.NewInjector(wal.NewMemStorage(), faultfs.Plan{})
	// A long epoch keeps the ticker's own sync out of the way: every sync
	// is the group committer's.
	db, err := silo.Open(silo.Config{EpochInterval: time.Hour, Storage: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := serve(t, db, server.Config{})
	c := dial(t, addr, 1)

	tbl := c.CreateTable("t")
	put := func(key string) error {
		txn := c.Begin(0)
		if err := txn.Insert(tbl, []byte(key), []byte("v")); err != nil {
			txn.Abort()
			return err
		}
		return txn.Commit()
	}
	if err := put("before"); err != nil {
		t.Fatalf("write commit: %v", err)
	}
	stats, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupBatches == 0 || stats.GroupCommits == 0 {
		t.Fatalf("write commit bypassed the group committer: %+v", stats)
	}

	// The next commit's log append is the next operation and the
	// committer's sync the one after it: fail the sync.
	inj.SetFailOp(inj.OpCount() + 2)
	if err := put("unsynced"); err == nil || !strings.Contains(err.Error(), faultfs.ErrInjected.Error()) {
		t.Fatalf("commit over a failed sync = %v, want the injected error", err)
	}

	ro := c.BeginReadOnly(0)
	if _, err := ro.Get(tbl, []byte("before")); err != nil {
		t.Fatalf("read after failed sync: %v", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("read-only commit after failed sync: %v", err)
	}
}
