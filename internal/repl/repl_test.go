package repl_test

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/repl"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// startPrimary opens a core engine over fresh storage with small segments
// (so replication tests exercise segment rotation) and serves it.
func startPrimary(t *testing.T) (*core.DB, *server.Server, string) {
	t.Helper()
	return startPrimarySized(t, 64<<10)
}

// startPrimarySized is startPrimary with segments of segSize bytes.
func startPrimarySized(t *testing.T, segSize uint64) (*core.DB, *server.Server, string) {
	t.Helper()
	db, err := core.Open(core.Config{
		WAL: wal.Config{SegmentSize: segSize, BufferSize: 32 << 10, Storage: wal.NewMemStorage()},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); db.Close() })
	return db, srv, ln.Addr().String()
}

// fastRedial is the reconnect backoff of the replicas these tests start:
// base 10ms, cap 200ms, jitter 0.5.
var fastRedial = engine.RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Jitter: 0.5}

func startReplica(t *testing.T, primaryAddr string) *repl.Replica {
	t.Helper()
	r, err := repl.Start(repl.Config{
		PrimaryAddr: primaryAddr,
		Retry:       fastRedial,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// waitWatermark polls until the replica's watermark reaches target.
func waitWatermark(t *testing.T, r *repl.Replica, target uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Watermark() < target {
		if err := r.Err(); err != nil {
			t.Fatalf("replica stream failed while catching up: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica watermark %#x never reached %#x (stats %+v)",
				r.Watermark(), target, r.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// fill commits n keys prefix0..prefix(n-1) on db, several per transaction.
func fill(t *testing.T, db engine.DB, tbl engine.Table, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; {
		tx := db.Begin(0)
		for j := 0; j < 8 && i < n; j, i = j+1, i+1 {
			if err := tx.Insert(tbl, []byte(prefix+strconv.Itoa(i)), []byte("v"+strconv.Itoa(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// audit reads prefix0..prefix(n-1) in one read-only transaction.
func audit(t *testing.T, db engine.DB, tbl engine.Table, prefix string, n int) {
	t.Helper()
	tx := db.BeginReadOnly(0)
	defer tx.Abort()
	for i := 0; i < n; i++ {
		v, err := tx.Get(tbl, []byte(prefix+strconv.Itoa(i)))
		if err != nil {
			t.Fatalf("key %s%d: %v", prefix, i, err)
		}
		if string(v) != "v"+strconv.Itoa(i) {
			t.Fatalf("key %s%d = %q, want v%d", prefix, i, v, i)
		}
	}
}

// TestReplicaStreamsAndServesSnapshots is the basic end-to-end path: a
// replica catches up to the primary's durable horizon, serves consistent
// snapshot reads pinned at its watermark, and rejects writes with the typed
// availability error.
func TestReplicaStreamsAndServesSnapshots(t *testing.T) {
	db, srv, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	fill(t, db, tbl, "k", 100)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	r := startReplica(t, addr)
	waitWatermark(t, r, db.DurableOffset())

	rtbl := r.DB().OpenTable("kv")
	if rtbl == nil {
		t.Fatal("replica did not replay the table catalog")
	}
	audit(t, r.DB(), rtbl, "k", 100)

	// Snapshot pinning: a transaction begun now must never see commits the
	// applier installs later, while a fresh transaction does.
	pinned := r.DB().BeginReadOnly(0)
	defer pinned.Abort()
	tx := db.Begin(0)
	if err := tx.Insert(tbl, []byte("late"), []byte("lv")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.DurableOffset())
	if _, err := pinned.Get(rtbl, []byte("late")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("pinned snapshot saw a later commit (err=%v)", err)
	}
	fresh := r.DB().BeginReadOnly(0)
	if v, err := fresh.Get(rtbl, []byte("late")); err != nil || string(v) != "lv" {
		t.Fatalf("fresh snapshot Get(late) = %q, %v", v, err)
	}
	fresh.Abort()

	// Writes are refused with the typed, correctly classified error.
	wtx := r.DB().Begin(1)
	err := wtx.Insert(rtbl, []byte("nope"), []byte("x"))
	wtx.Abort()
	if !errors.Is(err, engine.ErrReplicaReadOnly) {
		t.Fatalf("replica write error = %v, want ErrReplicaReadOnly", err)
	}
	if got := engine.Classify(err); got != engine.OutcomeUnavailable {
		t.Fatalf("Classify(ErrReplicaReadOnly) = %v, want OutcomeUnavailable", got)
	}
	if r.DB().CreateTable("ddl-nope") != nil {
		t.Fatal("replica CreateTable of an unknown table returned a handle")
	}

	// The primary's server reports the subscription and its progress.
	stats := srv.Stats()
	if stats.ReplSubscribers != 1 {
		t.Fatalf("ReplSubscribers = %d, want 1", stats.ReplSubscribers)
	}
	if stats.ReplBatches == 0 || stats.ReplShippedOffset == 0 {
		t.Fatalf("shipping counters did not advance: %+v", stats)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ReplAckedOffset < db.DurableOffset() {
		if time.Now().After(deadline) {
			t.Fatalf("acked offset %#x never reached durable %#x",
				srv.Stats().ReplAckedOffset, db.DurableOffset())
		}
		time.Sleep(time.Millisecond)
	}
	rs := r.Stats()
	if rs.Lag != 0 || rs.Watermark < db.DurableOffset() {
		t.Fatalf("caught-up replica reports lag: %+v", rs)
	}
}

// TestKillPrimaryPromoteAudit is the failover drill: replicate a workload,
// kill the primary, promote the replica through the admin wire protocol,
// and audit that every positively acknowledged commit survived — then that
// the promoted engine accepts writes and failover clients converge on it.
func TestKillPrimaryPromoteAudit(t *testing.T) {
	db, err := core.Open(core.Config{
		WAL: wal.Config{SegmentSize: 64 << 10, BufferSize: 32 << 10, Storage: wal.NewMemStorage()},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	primaryAddr := ln.Addr().String()

	r := startReplica(t, primaryAddr)

	// Serve the replica engine too, with the admin promote hook wired.
	rsrv, err := server.New(server.Config{
		DB:        r.DB(),
		PromoteFn: func() (string, error) { return "promoted to primary", r.Promote() },
	})
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rsrv.Serve(rln)
	t.Cleanup(func() { rsrv.Close() })
	replicaAddr := rln.Addr().String()

	// Acked workload: every key whose commit the client saw acknowledged
	// (group durability: the ack implies durable on the primary).
	c, err := client.Dial(client.Options{Addr: primaryAddr})
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.CreateTable("kv")
	const n = 200
	acked := 0
	for i := 0; i < n; i++ {
		tx := c.Begin(0)
		if err := tx.Insert(tbl, []byte("k"+strconv.Itoa(i)), []byte("v"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	c.Close()

	// Let the replica catch up to everything acked, then kill the primary.
	waitWatermark(t, r, db.DurableOffset())
	srv.Close()
	db.Close()

	// Promote through the wire protocol.
	admin, err := client.Dial(client.Options{Addr: replicaAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	report, err := admin.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if report == "" {
		t.Fatal("promote returned an empty report")
	}
	if _, err := admin.Promote(); err == nil {
		t.Fatal("second promote did not fail")
	}
	if st, _, err := admin.Health(); err != nil || st != engine.Healthy {
		t.Fatalf("promoted health = %v, %v, want Healthy", st, err)
	}

	// Failover: a client still pointed at the dead primary rotates onto the
	// promoted replica and finds every acknowledged commit.
	fc, err := client.Dial(client.Options{
		Addr:          primaryAddr,
		FallbackAddrs: []string{replicaAddr},
		DialTimeout:   time.Second,
	})
	if err != nil {
		t.Fatalf("failover dial: %v", err)
	}
	defer fc.Close()
	ftbl := fc.OpenTable("kv")
	if ftbl == nil {
		t.Fatal("promoted server lost the table catalog")
	}
	audit(t, fc, ftbl, "k", acked)

	// The promoted engine is a writable primary.
	err = engine.RunWithRetry(context.Background(), fc, 0, func(tx engine.Txn) error {
		return tx.Insert(ftbl, []byte("post-promote"), []byte("pp"))
	})
	if err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	rtx := r.DB().BeginReadOnly(0)
	defer rtx.Abort()
	if v, err := rtx.Get(r.DB().OpenTable("kv"), []byte("post-promote")); err != nil || string(v) != "pp" {
		t.Fatalf("post-promote read = %q, %v", v, err)
	}
}

// tornProxy relays TCP between a replica and its primary. The first `torn`
// connections have their server→client stream cut after a deterministic
// faultfs.TornLen prefix, forcing the replica to resubscribe from its
// watermark; later connections relay cleanly.
type tornProxy struct {
	ln     net.Listener
	target string
	seed   uint64
	torn   atomic.Int32
	conns  atomic.Int32
}

func newTornProxy(t *testing.T, target string, seed uint64, torn int) *tornProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tornProxy{ln: ln, target: target, seed: seed}
	p.torn.Store(int32(torn))
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.handle(c, int(p.conns.Add(1)))
		}
	}()
	return p
}

func (p *tornProxy) handle(c net.Conn, k int) {
	s, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	defer c.Close()
	defer s.Close()
	go io.Copy(s, c) // client→server; exits when either side closes
	if p.torn.Add(-1) >= 0 {
		// Forward a deterministic prefix of the shipped stream, then cut the
		// connection mid-frame.
		io.CopyN(c, s, int64(faultfs.TornLen(p.seed, k, 2048)))
		return
	}
	io.Copy(c, s)
}

// TestTornStreamResync cuts the replication stream mid-frame several times:
// each cut must surface as a transport error (never a partial apply), and
// the replica must resubscribe from its watermark and still converge on the
// complete data set.
func TestTornStreamResync(t *testing.T) {
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	fill(t, db, tbl, "a", 120)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	const tornConns = 4
	proxy := newTornProxy(t, addr, 0x7ea5, tornConns)
	r := startReplica(t, proxy.ln.Addr().String())

	// More writes while the stream is being torn.
	fill(t, db, tbl, "b", 120)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	waitWatermark(t, r, db.DurableOffset())
	if got := int(proxy.conns.Load()); got <= tornConns {
		t.Fatalf("replica used %d connections, want > %d (no resync happened)", got, tornConns)
	}
	rtbl := r.DB().OpenTable("kv")
	if rtbl == nil {
		t.Fatal("replica did not replay the table catalog")
	}
	audit(t, r.DB(), rtbl, "a", 120)
	audit(t, r.DB(), rtbl, "b", 120)
	if err := r.Err(); err != nil {
		t.Fatalf("replica recorded a fatal error: %v", err)
	}
}

func acctKey(w, i int) string { return "w" + strconv.Itoa(w) + ".a" + strconv.Itoa(i) }

// TestReplicationSoak is the bounded race soak: concurrent writers move
// money between accounts on the primary while replica snapshots check the
// conserved invariant. Gated behind ERMIA_REPL_SOAK (a Go duration) so the
// ordinary test run stays fast; check.sh runs it under -race.
func TestReplicationSoak(t *testing.T) {
	env := os.Getenv("ERMIA_REPL_SOAK")
	if env == "" {
		t.Skip("set ERMIA_REPL_SOAK (e.g. 30s) to run the replication soak")
	}
	dur, err := time.ParseDuration(env)
	if err != nil {
		t.Fatalf("bad ERMIA_REPL_SOAK %q: %v", env, err)
	}

	// Each writer owns one group of accounts and every transaction
	// increments the whole group, so within any consistent snapshot all
	// balances of a group are equal. Disjoint groups keep writers
	// conflict-free: the soak stresses the shipping path, not backoff.
	const writers, accounts = 4, 8
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("acct")
	seed := db.Begin(0)
	for w := 0; w < writers; w++ {
		for i := 0; i < accounts; i++ {
			if err := seed.Insert(tbl, []byte(acctKey(w, i)), []byte("0")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	r := startReplica(t, addr)
	waitWatermark(t, r, db.DurableOffset())
	rtbl := r.DB().OpenTable("acct")
	if rtbl == nil {
		t.Fatal("replica did not replay the table catalog")
	}

	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var wg sync.WaitGroup
	var txns atomic.Uint64
	c, err := client.Dial(client.Options{Addr: addr, PoolSize: writers})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctbl := c.OpenTable("acct")
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := engine.RunWithRetry(context.Background(), c, w, func(tx engine.Txn) error {
					for i := 0; i < accounts; i++ {
						k := []byte(acctKey(w, i))
						v, err := tx.Get(ctbl, k)
						if err != nil {
							return err
						}
						n, _ := strconv.Atoi(string(v))
						if err := tx.Update(ctbl, k, []byte(strconv.Itoa(n+1))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				txns.Add(1)
			}
		}(w)
	}

	// Replica reader: within every snapshot, each group's balances must be
	// equal — the per-block watermark advance never exposes a half-applied
	// transaction. Paced, not spinning: on a single-CPU box a busy loop
	// would monopolize the scheduler and starve the write path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for reads := 0; ; reads++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			tx := r.DB().BeginReadOnly(writers)
			for w := 0; w < writers; w++ {
				var first string
				for i := 0; i < accounts; i++ {
					v, err := tx.Get(rtbl, []byte(acctKey(w, i)))
					if err != nil {
						t.Errorf("replica read %d group %d account %d: %v", reads, w, i, err)
						tx.Abort()
						return
					}
					if i == 0 {
						first = string(v)
					} else if string(v) != first {
						t.Errorf("replica snapshot %d group %d torn: a0=%s a%d=%s", reads, w, first, i, v)
						tx.Abort()
						return
					}
				}
			}
			tx.Abort()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Final convergence audit.
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.DurableOffset())
	ptx := db.BeginReadOnly(0)
	rtx := r.DB().BeginReadOnly(0)
	defer ptx.Abort()
	defer rtx.Abort()
	for w := 0; w < writers; w++ {
		for i := 0; i < accounts; i++ {
			k := []byte(acctKey(w, i))
			pv, err1 := ptx.Get(tbl, k)
			rv, err2 := rtx.Get(rtbl, k)
			if err1 != nil || err2 != nil {
				t.Fatalf("final audit %s: primary %v, replica %v", k, err1, err2)
			}
			if string(pv) != string(rv) {
				t.Fatalf("final audit %s: primary %s, replica %s", k, pv, rv)
			}
		}
	}
	s := r.Stats()
	t.Logf("soak: %d txns, replica applied %d blocks / %d batches, lag %d",
		txns.Load(), s.Blocks, s.Batches, s.Lag)
}

// TestPromoteReadsOnlyPastTheWatermark: promotion replays the mirror from
// the replica's watermark, so a caught-up replica reads next to nothing of
// its mirror, however long the history it holds.
func TestPromoteReadsOnlyPastTheWatermark(t *testing.T) {
	db, _, addr := startPrimary(t)
	mirror := faultfs.NewRecorder(wal.NewMemStorage())
	r, err := repl.Start(repl.Config{
		PrimaryAddr: addr,
		Retry:       fastRedial,
		Core:        core.Config{WAL: wal.Config{Storage: mirror}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	tbl := db.CreateTable("kv")
	fill(t, db, tbl, "k", 2000)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.Log().DurableOffset())

	before := mirror.ReadBytes()
	if err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	if read := mirror.ReadBytes() - before; read > wal.BlockHeaderSize {
		t.Fatalf("promotion read %d bytes of a mirror caught up to %#x", read, db.Log().DurableOffset())
	}
	audit(t, r.DB(), r.DB().OpenTable("kv"), "k", 2000)
}

// TestMirrorFilesStayBounded: a replica that keeps up closes each mirror
// segment file once the stream has passed its end, so shipping many
// segments over DirStorage leaves its descriptor count flat.
func TestMirrorFilesStayBounded(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	db, _, addr := startPrimarySized(t, 8<<10)
	dir := t.TempDir()
	mirror, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repl.Start(repl.Config{
		PrimaryAddr: addr,
		Retry:       fastRedial,
		Core:        core.Config{WAL: wal.Config{Storage: mirror}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	tbl := db.CreateTable("kv")
	catchUp := func(prefix string, n int) {
		fill(t, db, tbl, prefix, n)
		if err := db.WaitDurable(); err != nil {
			t.Fatal(err)
		}
		waitWatermark(t, r, db.Log().DurableOffset())
	}
	catchUp("a", 200)
	before := openFDs()
	catchUp("b", 5000)
	after := openFDs()
	shipped, err := wal.Segments(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if len(shipped) < 20 {
		t.Fatalf("mirrored %d segments; the test needs at least 20", len(shipped))
	}
	if after-before > 2 {
		t.Fatalf("mirroring %d segments left %d more descriptors open", len(shipped), after-before)
	}
}

// TestMirrorCrashAcrossRollReopens: batches whose blocks span a segment roll
// are mirrored, and the replica crashes at any point of that. Promotion
// reopens the mirror's log with wal.Open, which refuses a later segment file
// holding a valid block behind a hole. So each mirror segment must be
// durable before blocks are written into the next: a crash must leave a
// mirror that recovers and reopens at every point.
func TestMirrorCrashAcrossRollReopens(t *testing.T) {
	db, _, addr := startPrimarySized(t, 8<<10)
	mirror := faultfs.NewRecorder(wal.NewMemStorage())
	r, err := repl.Start(repl.Config{
		PrimaryAddr: addr,
		Retry:       fastRedial,
		Core:        core.Config{WAL: wal.Config{Storage: mirror}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("kv")
	fill(t, db, tbl, "k", 2000)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.Log().DurableOffset())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	tr := mirror.Ops()
	segs := map[string]bool{}
	for _, op := range tr {
		if op.Kind == faultfs.OpWrite && strings.HasPrefix(op.Name, "log-") {
			segs[op.Name] = true
		}
	}
	if len(segs) < 4 {
		t.Fatalf("the mirror wrote %d segments; the test needs rolls", len(segs))
	}
	pts := faultfs.Points(tr, 1, 0)
	for _, p := range pts {
		img, err := faultfs.CrashImage(tr, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		res, err := wal.Recover(img, 0, func(wal.Block) error { return nil })
		if err != nil {
			t.Fatalf("%v: recover the mirror: %v", p, err)
		}
		log, err := wal.Open(wal.Config{Storage: img, SyncFlush: true}, res)
		if err != nil {
			t.Fatalf("%v: reopen the mirror: %v", p, err)
		}
		log.Close()
	}
	t.Logf("%d crash points over %d operations, %d segments", len(pts), len(tr), len(segs))
}
