package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultconn"
	"ermia/internal/proto"
	"ermia/internal/repl"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// rawConn is a frame-level test client: no pipelining, no pooling, just one
// deadline-stamped request/response exchange at a time.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	id uint64
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// send writes one frame with the given deadline budget without reading the
// response (pipelining).
func (r *rawConn) send(typ byte, dlMillis uint32, payload []byte) uint64 {
	r.t.Helper()
	r.id++
	if err := proto.WriteFrameD(r.bw, typ, r.id, dlMillis, payload); err != nil {
		r.t.Fatal(err)
	}
	if err := r.bw.Flush(); err != nil {
		r.t.Fatal(err)
	}
	return r.id
}

// recv reads one response frame, asserting its type and request id.
func (r *rawConn) recv(wantTyp byte, wantID uint64) (proto.Status, string, *proto.Dec) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, id, _, payload, err := proto.ReadFrameD(r.br)
	if err != nil {
		r.t.Fatal(err)
	}
	if typ != wantTyp|proto.RespFlag || id != wantID {
		r.t.Fatalf("got frame typ=%#x id=%d, want typ=%#x id=%d", typ, id, wantTyp|proto.RespFlag, wantID)
	}
	d := proto.NewDec(payload)
	st := d.Status()
	detail := string(d.Bytes())
	if d.Err() != nil {
		r.t.Fatal(d.Err())
	}
	return st, detail, d
}

func (r *rawConn) call(typ byte, dlMillis uint32, payload []byte) (proto.Status, string, *proto.Dec) {
	r.t.Helper()
	id := r.send(typ, dlMillis, payload)
	return r.recv(typ, id)
}

// TestPingFrame: Ping answers without a worker slot, carrying the primary
// epoch and engine health.
func TestPingFrame(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{Epoch: 7, Workers: 1})
	rc := rawDial(t, addr)

	// Exhaust the only worker slot so the Ping proves it needs none.
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	holder := c.Begin(0)
	if err := holder.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()

	st, _, d := rc.call(proto.MsgPing, 0, nil)
	if st != proto.StatusOK {
		t.Fatalf("ping status %v", st)
	}
	epoch := d.U64()
	health := engine.HealthState(d.U8())
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if epoch != 7 {
		t.Fatalf("ping epoch %d, want 7", epoch)
	}
	if health != engine.Healthy {
		t.Fatalf("ping health %v, want Healthy", health)
	}
}

// TestDeadlineExpiryAbortsTxn: a request whose budget elapsed while it sat
// queued behind a slow request is answered with StatusDeadlineExceeded, and
// the transaction it names is aborted — the slot frees immediately, not at
// teardown.
func TestDeadlineExpiryAbortsTxn(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{
		// A deliberately slow admin handler to queue requests behind.
		PromoteFn: func() (string, error) {
			time.Sleep(80 * time.Millisecond)
			return "slept", nil
		},
	})
	rc := rawDial(t, addr)

	st, _, _ := rc.call(proto.MsgCreateTable, 0, proto.AppendBytes(nil, []byte("t")))
	if st != proto.StatusOK {
		t.Fatalf("create table: %v", st)
	}
	st, _, d := rc.call(proto.MsgBegin, 0, beginPayload(0, proto.ClientTxnBit|1))
	if st != proto.StatusOK {
		t.Fatalf("begin: %v", st)
	}
	txnID := d.U64()
	abortsBefore := db.Stats().Aborts.Load()

	// Pipeline: slow Promote, then an op with a 1ms budget. By the time the
	// op dispatches its deadline is long gone.
	promoteID := rc.send(proto.MsgPromote, 0, nil)
	p := proto.AppendU64(nil, txnID)
	p = proto.AppendBytes(p, []byte("t"))
	p = proto.AppendBytes(p, []byte("k"))
	p = proto.AppendBytes(p, []byte("v"))
	opID := rc.send(proto.MsgInsert, 1, p)

	rc.recv(proto.MsgPromote, promoteID) // slow one first (in-order dispatch)
	st, _, _ = rc.recv(proto.MsgInsert, opID)
	if st != proto.StatusDeadlineExceeded {
		t.Fatalf("overdue insert status %v, want StatusDeadlineExceeded", st)
	}
	if err := st.Err(""); !errors.Is(err, engine.ErrDeadlineExceeded) || !engine.IsRetryable(err) {
		t.Fatalf("status maps to %v; want retryable engine.ErrDeadlineExceeded", err)
	}

	// The named transaction was aborted through the normal path.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().OpenTxns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("expired txn still holds a slot: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := db.Stats().Aborts.Load() - abortsBefore; got != 1 {
		t.Fatalf("engine aborts moved by %d, want 1", got)
	}
}

// TestBeginRefusesFutureEpoch: a client that has observed a higher primary
// epoch than this server's is talking to a deposed primary; Begin must be
// refused with the typed stale-epoch status rather than accept writes the
// old primary can never replicate.
func TestBeginRefusesFutureEpoch(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{Epoch: 3})
	rc := rawDial(t, addr)

	// The client saw epoch 9; this server is at 3.
	st, _, _ := rc.call(proto.MsgBegin, 0, beginPayload(9, proto.ClientTxnBit|1))
	if st != proto.StatusStaleEpoch {
		t.Fatalf("begin from the future: %v, want StatusStaleEpoch", st)
	}
	if err := st.Err(""); !errors.Is(err, engine.ErrStaleEpoch) ||
		engine.Classify(err) != engine.OutcomeUnavailable {
		t.Fatalf("status maps to %v (%v)", err, engine.Classify(err))
	}

	// At or below the server's epoch is fine.
	st, _, _ = rc.call(proto.MsgBegin, 0, beginPayload(3, proto.ClientTxnBit|1))
	if st != proto.StatusOK {
		t.Fatalf("begin at current epoch: %v", st)
	}
}

// beginPayload is a MsgBegin request with no flags: epoch, handle.
func beginPayload(epoch, handle uint64) []byte {
	return proto.AppendU64(proto.AppendU64(proto.AppendU8(nil, 0), epoch), handle)
}

// TestBeginHandles pins how a transaction gets its wire id: a Begin is
// registered under the client's handle and echoes it; a handle that names a
// live transaction, or that lacks the client bit, is refused without
// touching what is already open.
func TestBeginHandles(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{})
	rc := rawDial(t, addr)
	if st, _, _ := rc.call(proto.MsgCreateTable, 0, proto.AppendBytes(nil, []byte("t"))); st != proto.StatusOK {
		t.Fatalf("create table: %v", st)
	}
	begin := func(handle uint64) (proto.Status, uint64) {
		st, _, d := rc.call(proto.MsgBegin, 0, beginPayload(0, handle))
		return st, d.U64()
	}
	insert := func(txnID uint64, key string) proto.Status {
		p := proto.AppendU64(nil, txnID)
		for _, f := range []string{"t", key, "v"} {
			p = proto.AppendBytes(p, []byte(f))
		}
		st, _, _ := rc.call(proto.MsgInsert, 0, p)
		return st
	}
	commit := func(txnID uint64) proto.Status {
		st, _, _ := rc.call(proto.MsgCommit, 0, proto.AppendU64(nil, txnID))
		return st
	}

	const handle = proto.ClientTxnBit | 1
	if st, id := begin(handle); st != proto.StatusOK || id != handle {
		t.Fatalf("begin with a handle: %v, id %#x; want OK echoing %#x", st, id, uint64(handle))
	}
	if st := insert(handle, "mine"); st != proto.StatusOK {
		t.Fatalf("insert under the handle: %v", st)
	}
	if st, _ := begin(handle); st != proto.StatusBadRequest {
		t.Fatalf("duplicate live handle: %v, want StatusBadRequest", st)
	}
	if st, _ := begin(7); st != proto.StatusBadRequest {
		t.Fatalf("handle without the client bit: %v, want StatusBadRequest", st)
	}
	if got := srv.Stats().OpenTxns; got != 1 {
		t.Fatalf("%d transactions open after the refusals, want 1", got)
	}
	// The refused duplicate must not have replaced the first transaction:
	// its write is still there to commit.
	if st := commit(handle); st != proto.StatusOK {
		t.Fatalf("commit under the handle: %v", st)
	}
	txn := db.BeginReadOnly(0)
	defer txn.Abort()
	if _, err := txn.Get(db.OpenTable("t"), []byte("mine")); err != nil {
		t.Fatalf("row %q: %v", "mine", err)
	}
}

// TestMalformedFramesAreRefused: a Begin without its epoch or handle, a
// ShardPrepare without its decision list, and a frame of a retired type
// are malformed. Each is refused with StatusBadRequest, opens no
// transaction and takes no worker slot.
func TestMalformedFramesAreRefused(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{Workers: 2})
	rc := rawDial(t, addr)
	if st, _, _ := rc.call(proto.MsgCreateTable, 0, proto.AppendBytes(nil, []byte("t"))); st != proto.StatusOK {
		t.Fatalf("create table: %v", st)
	}
	const open = proto.ClientTxnBit | 1
	if st, _, _ := rc.call(proto.MsgBegin, 0, beginPayload(0, open)); st != proto.StatusOK {
		t.Fatalf("begin: %v", st)
	}
	prepare := proto.AppendU64(nil, open)
	prepare = proto.AppendU64(prepare, 0) // epoch
	prepare = proto.AppendU64(prepare, 0) // map version
	prepare = proto.AppendBytes(prepare, []byte("gid"))
	prepare = proto.AppendU32(prepare, 0) // no ops, and no decision list after them
	// Frame types 22–24 are retired in wire.golden (the old server-side
	// query frames); the literals are what an old peer would still send.
	const retiredQuery, retiredQueryRow, retiredQueryEnd = 22, 23, 24
	for _, c := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"begin of 1 byte", proto.MsgBegin, []byte{0}},
		{"begin of 9 bytes", proto.MsgBegin, proto.AppendU64([]byte{0}, 0)},
		{"shard prepare without a list", proto.MsgShardPrepare, prepare},
		{"retired type 22", retiredQuery, proto.AppendU32(proto.AppendBytes(nil, []byte{0xff}), 0)},
		{"retired type 23", retiredQueryRow, proto.AppendU64(nil, 1)},
		{"retired type 24", retiredQueryEnd, proto.AppendU64(nil, 1)},
	} {
		if st, _, _ := rc.call(c.typ, 0, c.payload); st != proto.StatusBadRequest {
			t.Errorf("%s: %v, want StatusBadRequest", c.name, st)
		}
		if got := srv.Stats().OpenTxns; got != 1 {
			t.Errorf("%s: %d transactions open, want 1", c.name, got)
		}
	}
	// The second worker slot is still free.
	if st, _, _ := rc.call(proto.MsgBegin, 0, beginPayload(0, proto.ClientTxnBit|2)); st != proto.StatusOK {
		t.Fatalf("begin after the refusals: %v", st)
	}
}

// TestWriteTimeoutDisconnectsSlowReader: a peer that stops reading is
// disconnected once the configured write timeout fires, reclaiming its
// connection and transaction resources — it must not wedge the session
// writer or hold slots forever. Runs over faultconn so the kernel's socket
// buffers can't absorb the flood.
func TestWriteTimeoutDisconnectsSlowReader(t *testing.T) {
	db := openCore(t, core.Config{})
	cfg := server.Config{WriteTimeout: 150 * time.Millisecond}
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := faultconn.NewNetwork(1)
	n.BufSize = 1 << 10
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	nc, err := n.DialTimeout("client", "server", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Flood requests and never read a single response: the server's write
	// path backs up through its bufio buffer into the 1KiB pipe, stalls,
	// and the write deadline disconnects us.
	bw := bufio.NewWriter(nc)
	for i := uint64(1); i < 4000; i++ {
		if err := proto.WriteFrame(bw, proto.MsgStats, i, nil); err != nil {
			break // server already cut us off
		}
		if err := bw.Flush(); err != nil {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow reader still connected: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalledSubscriberCostsBoundedMemory: a raw replication subscriber
// that stops reading blocks its own shipper's write. While it is stalled it
// floods Stats requests, and its session buffer never holds more than
// WriteBufSize plus one response: the handler waits for the blocked write
// instead of queueing without limit. Another session keeps committing and
// is acked promptly, and the stalled session is gone within WriteTimeout.
// Runs over faultconn so the kernel's socket buffers cannot absorb the log.
func TestStalledSubscriberCostsBoundedMemory(t *testing.T) {
	const writeTimeout = time.Second
	db := openCore(t, core.Config{})
	cfg := server.Config{WriteTimeout: writeTimeout}
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := faultconn.NewNetwork(1)
	n.BufSize = 4 << 10
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := client.Dial(client.Options{Addr: "server", Dial: func(addr string, d time.Duration) (net.Conn, error) {
		return n.DialTimeout("writer", addr, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl := c.CreateTable("t")
	key := 0
	commit := func(size int) time.Duration {
		t.Helper()
		start := time.Now()
		key++
		txn := c.Begin(0)
		if err := txn.Insert(tbl, []byte(fmt.Sprintf("k%06d", key)), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", key, err)
		}
		return time.Since(start)
	}

	nc, err := n.DialTimeout("stalled", "server", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sub := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if st, _, _ := sub.call(proto.MsgReplSubscribe, 0, proto.AppendU64(nil, 0)); st != proto.StatusOK {
		t.Fatalf("subscribe: %v", st)
	}
	// From here on the subscriber reads nothing. Commit until the shipper
	// is stuck: its shipped offset stays put below the durable horizon.
	for i := 0; i < 32; i++ {
		commit(8 << 10)
	}
	deadline := time.Now().Add(5 * time.Second)
	for last := srv.Stats().ReplShippedOffset; ; {
		commit(100)
		time.Sleep(20 * time.Millisecond)
		st := srv.Stats()
		if st.ReplShippedOffset == last && st.ReplShippedOffset < st.DurableOffset {
			break
		}
		last = st.ReplShippedOffset
		if time.Now().After(deadline) {
			t.Fatalf("the shipper never stalled: %+v", st)
		}
	}
	stalled := time.Now()

	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for i := uint64(100); i < 4100; i++ {
			if proto.WriteFrame(nc, proto.MsgStats, i, nil) != nil {
				return // the server cut us off
			}
		}
	}()

	peak := 0
	for time.Since(stalled) < writeTimeout/2 {
		if d := commit(100); d > writeTimeout/4 {
			t.Fatalf("a commit took %v beside a stalled subscriber", d)
		}
		peak = max(peak, server.MaxSessionBuffer(srv))
	}
	st := srv.Stats()
	for ; st.ReplSubscribers != 0 || st.Conns != 1; st = srv.Stats() {
		if time.Since(stalled) > writeTimeout+time.Second {
			t.Fatalf("stalled subscriber still connected %v after the stall: %+v", time.Since(stalled), st)
		}
		peak = max(peak, server.MaxSessionBuffer(srv))
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("stalled session gone %v after the stall, its buffer peaked at %d bytes", time.Since(stalled), peak)
	<-flooded
	if bound := server.WriteBufSize + 1<<10; peak > bound || peak < server.WriteBufSize/2 {
		t.Fatalf("stalled session buffered at most %d bytes, want the Stats flood to fill it toward %d and never past %d",
			peak, server.WriteBufSize, bound)
	}
	commit(100) // the committer is still serving
}

// TestIdleTimeoutReapsSilentPeer: a connection that never sends a frame is
// reaped by the idle timer, while a client running Ping keepalives at a
// fraction of the timeout survives and keeps working.
func TestIdleTimeoutReapsSilentPeer(t *testing.T) {
	db := openCore(t, core.Config{})
	srv, addr := serve(t, db, server.Config{IdleTimeout: 120 * time.Millisecond})

	// Keepalive client first: its pings must hold the connection open.
	c, err := client.Dial(client.Options{Addr: addr, KeepaliveInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	silent, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Wait until the silent conn registers, then let the idle reaper run.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Conns < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("conns never reached 2: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.Stats().Conns != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("silent peer not reaped: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Well past several idle windows, the keepalive client still works.
	time.Sleep(250 * time.Millisecond)
	tbl := c.CreateTable("t")
	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("keepalive client lost its session: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReplCommitWithoutReplicaExpires: with semi-sync replication on and
// no subscriber, a commit is durable locally but must NOT be acknowledged —
// it expires with the typed deadline status (outcome indeterminate,
// retryable), both under the server-side cap and under a client deadline.
func TestSyncReplCommitWithoutReplicaExpires(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{
		SyncRepl:     true,
		SyncReplWait: 150 * time.Millisecond,
	})
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")

	start := time.Now()
	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	err := txn.Commit()
	if !errors.Is(err, engine.ErrDeadlineExceeded) || !engine.IsRetryable(err) {
		t.Fatalf("unreplicated sync commit = %v, want retryable ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 2*time.Second {
		t.Fatalf("expiry took %v, want ~SyncReplWait", d)
	}

	// A request deadline tighter than the server cap wins.
	c2, err := client.Dial(client.Options{Addr: addr, RequestTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	start = time.Now()
	txn = c2.Begin(0)
	if err := txn.Insert(tbl, []byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	err = txn.Commit()
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("deadline commit = %v, want ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 140*time.Millisecond {
		t.Fatalf("client-deadline expiry took %v, want ~60ms", d)
	}
}

// TestSyncReplCommitAcksAfterReplicaAck: with a live replica subscribed, a
// semi-sync commit is acknowledged only after the replica applied it — so
// the acked write is immediately durable on BOTH nodes, and the per-epoch
// write counter moves under the server's epoch.
func TestSyncReplCommitAcksAfterReplicaAck(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := openCore(t, core.Config{WAL: wal.Config{Storage: st}})
	srv, addr := serve(t, db, server.Config{
		SyncRepl:      true,
		SyncReplWait:  2 * time.Second,
		Epoch:         4,
		ReplHeartbeat: 20 * time.Millisecond,
	})

	rep, err := repl.Start(repl.Config{PrimaryAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("semi-sync commit with live replica: %v", err)
	}
	// The ack implies the replica already applied the bytes.
	if got := srv.Stats().ReplAckedOffset; got == 0 {
		t.Fatal("commit acked with zero replica watermark")
	}
	roDB := rep.DB()
	roTbl := roDB.OpenTable("t")
	if roTbl == nil {
		t.Fatal("replica missing table after acked commit")
	}
	ro := roDB.BeginReadOnly(0)
	defer ro.Abort()
	if _, err := ro.Get(roTbl, []byte("k")); err != nil {
		t.Fatalf("acked semi-sync commit not on replica: %v", err)
	}
	// Heartbeats carried the primary epoch to the replica.
	deadline := time.Now().Add(2 * time.Second)
	for rep.Epoch() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("replica epoch %d, want 4", rep.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.CommitEpochs(); got[4] == 0 {
		t.Fatalf("per-epoch commit audit empty: %v", got)
	}
}

// TestReplicaRejectsDeposedPrimaryStream: a replica that has persisted epoch
// E refuses a stream stamped below E — the wire-level fence against a healed
// old primary feeding a promoted cluster stale bytes. The refusal must
// survive a replica restart (the epoch is persisted, not just in memory).
func TestReplicaRejectsDeposedPrimaryStream(t *testing.T) {
	db := openCore(t, core.Config{})
	_, addr := serve(t, db, server.Config{Epoch: 2, ReplHeartbeat: 10 * time.Millisecond})

	mirror := wal.NewMemStorage()
	// The replica already lived through epoch 5 (persisted fence).
	if err := repl.SaveEpoch(mirror, 5); err != nil {
		t.Fatal(err)
	}
	rep, err := repl.Start(repl.Config{
		PrimaryAddr: addr,
		Core:        core.Config{WAL: wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: mirror}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// Generate traffic so a batch (or heartbeat) with the stale epoch 2
	// reaches the replica and trips the fence fatally.
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replica accepted a stream from a deposed primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rep.Err(); !errors.Is(err, repl.ErrStreamFatal) {
		t.Fatalf("fence error = %v, want ErrStreamFatal", err)
	}
	if rep.Epoch() != 5 {
		t.Fatalf("replica epoch moved to %d", rep.Epoch())
	}
	if w := rep.Watermark(); w > wal.Grain {
		t.Fatalf("replica applied bytes (watermark %d) from a deposed primary", w)
	}
}

// TestSupervisorPromotesOnSilence: heartbeats flowing, no promotion; primary
// gone, the supervisor promotes the replica, which claims the next epoch and
// accepts writes.
func TestSupervisorPromotesOnSilence(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	db := openCore(t, core.Config{WAL: wal.Config{Storage: st}})
	srv, addr := serve(t, db, server.Config{Epoch: 1, ReplHeartbeat: 15 * time.Millisecond})

	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("survives"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	rep, err := repl.Start(repl.Config{
		PrimaryAddr:      addr,
		HeartbeatTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Wait for catch-up so the acked commit is on the replica.
	deadline := time.Now().Add(5 * time.Second)
	for rep.Watermark() < srv.Stats().DurableOffset || srv.Stats().DurableOffset == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: wm=%d durable=%d", rep.Watermark(), srv.Stats().DurableOffset)
		}
		time.Sleep(5 * time.Millisecond)
	}

	sup := &repl.Supervisor{R: rep, SilenceTimeout: 250 * time.Millisecond}
	supDone := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() { supDone <- sup.Run(stop) }()

	// Heartbeats are flowing: well past the timeout, still not promoted.
	time.Sleep(400 * time.Millisecond)
	select {
	case err := <-supDone:
		t.Fatalf("supervisor promoted under live heartbeats: %v", err)
	default:
	}

	srv.Close() // primary dies; silence begins
	select {
	case err := <-supDone:
		if err != nil {
			t.Fatalf("supervised promotion: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor never promoted after primary death")
	}
	if rep.Epoch() != 2 {
		t.Fatalf("promoted epoch %d, want 2", rep.Epoch())
	}
	// The promoted DB serves writes and kept the acked commit.
	pdb := rep.DB()
	ptbl := pdb.OpenTable("t")
	if ptbl == nil {
		t.Fatal("table lost across promotion")
	}
	w := pdb.Begin(0)
	if _, err := w.Get(ptbl, []byte("survives")); err != nil {
		t.Fatalf("acked commit lost across supervised promotion: %v", err)
	}
	if err := w.Update(ptbl, []byte("survives"), []byte("v2")); err != nil {
		t.Fatalf("promoted DB refuses writes: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

var _ = fmt.Sprintf // keep fmt for future debugging output
