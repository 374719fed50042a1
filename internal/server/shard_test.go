package server_test

import (
	"bytes"
	"errors"
	"strconv"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/proto"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// participant is one 2PC participant over a storage whose syncs the test
// controls, with a client that plays coordinator frame by frame.
type participant struct {
	t    *testing.T
	mem  *wal.MemStorage
	gate *faultfs.SyncGate
	srv  *server.Server
	c    *client.Client
	tbl  engine.Table
}

func walOver(st wal.Storage) wal.Config {
	return wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st}
}

func newParticipant(t *testing.T) *participant {
	t.Helper()
	p := &participant{t: t, mem: wal.NewMemStorage()}
	p.gate = faultfs.NewSyncGate(p.mem, 0)
	p.attach(openCore(t, core.Config{WAL: walOver(p.gate)}))
	return p
}

func (p *participant) attach(db *core.DB) {
	var addr string
	p.srv, addr = serve(p.t, db, server.Config{})
	p.c = dial(p.t, addr, 2)
	p.tbl = p.c.CreateTable("t")
}

// crash restarts the participant from what its storage had synced: the old
// server and engine are abandoned mid-flight, as a power cut would.
func (p *participant) crash() {
	p.t.Helper()
	p.gate.Kill()
	p.mem = p.mem.Crash()
	p.srv.Close()
	p.gate = faultfs.NewSyncGate(p.mem, 0)
	db, err := core.Recover(core.Config{WAL: walOver(p.gate)})
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { db.Close() })
	p.attach(db)
}

// prepare inserts key under a fresh transaction and prepares it as gid,
// listing covered, exactly as a router's phase one would.
func (p *participant) prepare(gid, key string, covered []client.Decided) error {
	p.t.Helper()
	txn := p.c.Begin(0)
	if err := txn.Insert(p.tbl, []byte(key), []byte("v")); err != nil {
		p.t.Fatal(err)
	}
	ops := []client.PrepareOp{{Op: proto.MsgInsert, Table: "t", Key: []byte(key), Value: []byte("v")}}
	err := p.c.StartShardPrepare(txn, []byte(gid), 0, ops, covered).Wait()
	if err != nil {
		txn.Abort()
	}
	return err
}

func (p *participant) has(key string) bool {
	p.t.Helper()
	ro := p.c.BeginReadOnly(1)
	defer ro.Abort()
	_, err := ro.Get(p.tbl, []byte(key))
	if err != nil && !errors.Is(err, engine.ErrNotFound) {
		p.t.Fatal(err)
	}
	return err == nil
}

func (p *participant) parked() uint32 {
	p.t.Helper()
	st, err := p.c.ServerStats()
	if err != nil {
		p.t.Fatal(err)
	}
	return st.PreparedTxns
}

// returnsWhileHeld reports whether fn returns although the gate is held.
// Either way fn has returned, and the gate is released, when it does.
func (p *participant) returnsWhileHeld(fn func() error) bool {
	p.t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	early := false
	var err error
	select {
	case err = <-done:
		early = true
		p.gate.Release()
	case <-time.After(100 * time.Millisecond):
		p.gate.Release()
		err = <-done
	}
	if err != nil {
		p.t.Fatal(err)
	}
	return early
}

// TestShardDecideAckModes pins when a decide is acknowledged: a plain one
// (without ShardDecideOnApply) only once the decision is durable; one carrying proto.ShardDecideOnApply at once; and a plain
// re-delivery of an already applied decision — the coordinator's retry after
// a lost ack, or its confirmation of an on-apply ack — again only once the
// first delivery's log records are durable, though it has nothing to apply.
func TestShardDecideAckModes(t *testing.T) {
	p := newParticipant(t)
	for _, gid := range []string{"g-plain", "g-apply"} {
		if err := p.prepare(gid, "k-"+gid, nil); err != nil {
			t.Fatal(err)
		}
	}

	p.gate.Hold()
	if p.returnsWhileHeld(func() error { return p.c.ShardDecide(0, []byte("g-plain"), true) }) {
		t.Error("plain decide acked before its commit was synced")
	}

	p.gate.Hold()
	if !p.returnsWhileHeld(func() error { return p.c.StartShardDecide(0, []byte("g-apply"), true, true).Wait() }) {
		t.Error("on-apply decide waited for the sync")
	}
	if !p.has("k-g-apply") {
		t.Error("decide acked on apply, commit not visible")
	}

	// Commit a third gid on apply under a held gate, then re-deliver it.
	if err := p.prepare("g-again", "k-g-again", nil); err != nil {
		t.Fatal(err)
	}
	p.gate.Hold()
	if err := p.c.StartShardDecide(0, []byte("g-again"), true, true).Wait(); err != nil {
		t.Fatal(err)
	}
	if p.returnsWhileHeld(func() error { return p.c.ShardDecide(1, []byte("g-again"), true) }) {
		t.Error("re-delivered decide acked while the first delivery's commit was unsynced")
	}
	if n := p.parked(); n != 0 {
		t.Errorf("%d transactions still parked", n)
	}
}

// TestShardPrepareCoversListedDecisions loses an on-apply commit to a crash
// and lets the next prepare's trailing list bring it back: the prepare's
// durable ack must mean the listed decision is durable too.
func TestShardPrepareCoversListedDecisions(t *testing.T) {
	p := newParticipant(t)
	if err := p.prepare("g1", "k1", nil); err != nil {
		t.Fatal(err)
	}
	p.gate.Hold()
	if err := p.c.StartShardDecide(0, []byte("g1"), true, true).Wait(); err != nil {
		t.Fatal(err)
	}
	p.crash()
	if p.has("k1") || p.parked() != 1 {
		t.Fatalf("after the crash: k1 visible=%v parked=%d, want the commit undone and g1 re-parked", p.has("k1"), p.parked())
	}

	if err := p.prepare("g2", "k2", []client.Decided{{GID: []byte("g1"), Commit: true}}); err != nil {
		t.Fatal(err)
	}
	if !p.has("k1") || p.parked() != 1 {
		t.Fatalf("after the covering prepare: k1 visible=%v parked=%d, want g1 committed and only g2 parked", p.has("k1"), p.parked())
	}
	p.crash() // the ack was durable: nothing of g1 may come back
	if !p.has("k1") || p.has("k2") || p.parked() != 1 {
		t.Fatalf("after the second crash: k1=%v k2=%v parked=%d, want g1 committed, g2 prepared", p.has("k1"), p.has("k2"), p.parked())
	}
	if err := p.c.ShardDecide(0, []byte("g2"), false); err != nil {
		t.Fatal(err)
	}
}

// TestShardPreparedListsAndFences: a listing returns exactly the range's
// prepare records, and afterwards the range takes no new prepare.
func TestShardPreparedListsAndFences(t *testing.T) {
	p := newParticipant(t)
	for _, gid := range []string{"a-1", "b-1", "b-2", "c-1"} {
		if err := p.prepare(gid, "k-"+gid, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.c.ShardPrepared([]byte("b-"), []byte("b-2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], []byte("b-1")) {
		t.Fatalf("listing [b-, b-2) = %q, want [b-1]", got)
	}
	if err := p.prepare("b-0", "k-late", nil); !errors.Is(err, engine.ErrAborted) {
		t.Fatalf("prepare inside a listed range = %v, want ErrAborted", err)
	}
	if err := p.prepare("b-3", "k-above", nil); err != nil {
		t.Fatalf("prepare above the listed range: %v", err)
	}
	for _, gid := range []string{"a-1", "b-1", "b-2", "b-3", "c-1"} {
		if err := p.c.ShardDecide(0, []byte(gid), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.parked(); n != 0 {
		t.Errorf("%d transactions still parked", n)
	}
}

// TestShardPreparedKeepsItsWriteSet parks a prepared transaction across other
// transactions' traffic. The engine lends every transaction its worker
// slot's scratch arrays and takes them back when it finishes; a parked
// transaction keeps its slot, so nothing the other slots run in the meantime
// may reach its write set or its log records.
func TestShardPreparedKeepsItsWriteSet(t *testing.T) {
	p := newParticipant(t)
	if err := p.prepare("g-parked", "k-parked", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		txn := p.c.Begin(0)
		key := []byte("other-" + strconv.Itoa(i))
		if err := txn.Insert(p.tbl, key, []byte("o")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := txn.Update(p.tbl, []byte("other-"+strconv.Itoa(i-1)), []byte("o2")); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if p.has("k-parked") || p.parked() != 1 {
		t.Fatalf("before the decision: k-parked visible=%v parked=%d", p.has("k-parked"), p.parked())
	}
	if err := p.c.ShardDecide(0, []byte("g-parked"), true); err != nil {
		t.Fatal(err)
	}
	value := func() string {
		ro := p.c.BeginReadOnly(1)
		defer ro.Abort()
		v, err := ro.Get(p.tbl, []byte("k-parked"))
		if err != nil {
			t.Fatalf("k-parked after the commit decision: %v", err)
		}
		return string(v)
	}
	if v := value(); v != "v" {
		t.Fatalf("k-parked = %q, want the prepared insert's value", v)
	}
	p.crash() // the plain decide was acked durable: its log record must hold the same write
	if v := value(); v != "v" || p.parked() != 0 {
		t.Fatalf("after a crash: k-parked = %q, parked=%d", v, p.parked())
	}
}
