package client

import (
	"errors"
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// clientTxn is one remote transaction, pinned to the pool connection whose
// server session owns it. Like engine transactions it is single-goroutine.
// A transport failure is sticky: every later operation (including Commit)
// reports the original engine.ErrConnLost, and the server aborts the
// orphaned transaction during session teardown.
type clientTxn struct {
	c     *Client
	cn    *conn
	id    uint64 // client-assigned handle, proto.ClientTxnBit set
	flags byte   // MsgBegin flags, until the Begin is sent
	// begun is set once the held MsgBegin has gone out. A transaction that
	// ends before that never existed as far as the server is concerned.
	begun bool
	// unawaited is the Begin response's proto.BeginEndUnawaited: the
	// transaction's Commit cannot fail, so Commit and Abort are posted held
	// and never awaited.
	unawaited bool
	err       error // sticky failure; also set for a refused Begin
	done      bool
	// buf is where request payloads are built; send copies each one out
	// before returning, so every frame reuses it. inline backs it first.
	buf    []byte
	inline [64]byte
}

// payload starts a request payload naming the transaction, in t.buf.
func (t *clientTxn) payload() []byte {
	if t.buf == nil {
		t.buf = t.inline[:0]
	}
	return proto.AppendU64(t.buf[:0], t.id)
}

// fail records the first transport failure.
func (t *clientTxn) fail(err error) error {
	if t.err == nil {
		t.err = err
	}
	return err
}

// txnCall is one frame naming the transaction, sent and not yet answered.
type txnCall struct {
	w, bw waiter
	begin bool // the held MsgBegin went out ahead of it; bw awaits its response
}

// start sends one frame that names the transaction. The transaction's first
// frame carries the held MsgBegin ahead of it in the same write. Transport
// failures are sticky; an oversized frame is refused before anything is
// sent, so it leaves the transaction as it was (the Begin still held if it
// was).
func (t *clientTxn) start(typ byte, payload []byte) (txnCall, error) {
	var begin []byte
	if !t.begun {
		// Begin carries the client's observed epoch: a deposed primary
		// (lower epoch) must refuse rather than accept writes it can never
		// replicate.
		var b [17]byte
		begin = proto.AppendU64(proto.AppendU64(proto.AppendU8(b[:0], t.flags), t.c.epochMax.Load()), t.id)
	}
	w, bw, err := t.cn.send(typ, payload, begin)
	if errors.Is(err, proto.ErrFrameTooLarge) {
		return txnCall{}, err
	}
	if err != nil {
		return txnCall{}, t.fail(err)
	}
	t.begun = true
	return txnCall{w: w, bw: bw, begin: begin != nil}, nil
}

// finish awaits a started frame's response, after the Begin response when
// the frame carried one, so a refused Begin surfaces here with the sentinel
// the server gave (and sticks), not as the StatusUnknownTxn the orphaned
// frame earns.
func (t *clientTxn) finish(c txnCall) (proto.Status, string, *proto.Dec, error) {
	if c.begin {
		if err := t.awaitBegin(c.bw); err != nil {
			return 0, "", nil, t.fail(err)
		}
	}
	st, detail, d, err := t.cn.await(c.w)
	if err != nil {
		return 0, "", nil, t.fail(err)
	}
	return st, detail, d, nil
}

// rpc is start then finish: one exchange the caller waits out.
func (t *clientTxn) rpc(typ byte, payload []byte) (proto.Status, string, *proto.Dec, error) {
	c, err := t.start(typ, payload)
	if err != nil {
		return 0, "", nil, err
	}
	return t.finish(c)
}

// awaitBegin consumes the response to the held MsgBegin.
func (t *clientTxn) awaitBegin(bw waiter) error {
	st, detail, d, err := t.cn.await(bw)
	if err != nil {
		return err
	}
	if err := st.Err(detail); err != nil {
		if errors.Is(err, engine.ErrStaleEpoch) {
			t.c.rotate(t.cn, err)
		}
		return err
	}
	if id := d.U64(); d.Err() != nil || id != t.id {
		// The server must echo the handle; every frame sent under it would
		// miss a transaction registered under anything else.
		err := fmt.Errorf("%w: server registered transaction %#x, not the client handle %#x", proto.ErrBadFrame, id, t.id)
		t.cn.fail(err)
		return connLost(err)
	}
	if flags := d.Rest(); len(flags) > 0 { // a server that predates the flags sends none
		t.unawaited = flags[0]&proto.BeginEndUnawaited != 0
	}
	return nil
}

// table resolves the engine.Table argument, ensuring the table exists
// server-side if its creation was lost to a network failure.
func (t *clientTxn) table(tbl engine.Table) (*clientTable, error) {
	ct, ok := tbl.(*clientTable)
	if !ok {
		return nil, proto.ErrUnknownTable
	}
	if err := ct.ensure(t.cn); err != nil {
		return nil, err
	}
	return ct, nil
}

// op runs one keyed operation RPC and returns the response body decoder.
func (t *clientTxn) op(typ byte, tbl engine.Table, key, value []byte) (*proto.Dec, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.done {
		return nil, engine.ErrAborted
	}
	ct, err := t.table(tbl)
	if err != nil {
		return nil, t.fail(err)
	}
	for attempt := 0; ; attempt++ {
		p := proto.AppendBytes(t.payload(), []byte(ct.name))
		p = proto.AppendBytes(p, key)
		if typ == proto.MsgInsert || typ == proto.MsgUpdate {
			p = proto.AppendBytes(p, value)
		}
		t.buf = p
		st, detail, d, err := t.rpc(typ, p)
		if err != nil {
			return nil, err
		}
		if err := st.Err(detail); err != nil {
			// A handle can go stale across a server restart that lost the
			// table's creation; re-create and retry once, transparently.
			if errors.Is(err, proto.ErrUnknownTable) && attempt == 0 {
				if err := ct.recreate(t.cn); err == nil {
					t.cn.counters.retries.Add(1)
					continue
				}
			}
			return nil, err // taxonomy error: not sticky, the txn may abort normally
		}
		return d, nil
	}
}

// Get implements engine.Txn.
func (t *clientTxn) Get(tbl engine.Table, key []byte) ([]byte, error) {
	d, err := t.op(proto.MsgGet, tbl, key, nil)
	if err != nil {
		return nil, err
	}
	v := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, t.fail(connLost(err))
	}
	return v, nil
}

// Insert implements engine.Txn.
func (t *clientTxn) Insert(tbl engine.Table, key, value []byte) error {
	_, err := t.op(proto.MsgInsert, tbl, key, value)
	return err
}

// Update implements engine.Txn.
func (t *clientTxn) Update(tbl engine.Table, key, value []byte) error {
	_, err := t.op(proto.MsgUpdate, tbl, key, value)
	return err
}

// Delete implements engine.Txn.
func (t *clientTxn) Delete(tbl engine.Table, key []byte) error {
	_, err := t.op(proto.MsgDelete, tbl, key, nil)
	return err
}

// Scan implements engine.Txn. Large ranges page transparently: each page is
// one RPC inside the same server-side transaction, so the whole scan sees
// one snapshot and phantom protection covers the full range.
func (t *clientTxn) Scan(tbl engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if t.err != nil {
		return t.err
	}
	if t.done {
		return engine.ErrAborted
	}
	ct, err := t.table(tbl)
	if err != nil {
		return t.fail(err)
	}
	cursor := lo
	recreated := false
	for {
		p := proto.AppendBytes(t.payload(), []byte(ct.name))
		p = proto.AppendU32(p, 0) // 0: server page size
		hasHi := byte(0)
		if hi != nil {
			hasHi = 1
		}
		p = proto.AppendU8(p, hasHi)
		p = proto.AppendBytes(p, cursor)
		p = proto.AppendBytes(p, hi)
		t.buf = p
		st, detail, d, err := t.rpc(proto.MsgScan, p)
		if err != nil {
			return err
		}
		if err := st.Err(detail); err != nil {
			if errors.Is(err, proto.ErrUnknownTable) && !recreated {
				recreated = true
				if err := ct.recreate(t.cn); err == nil {
					t.cn.counters.retries.Add(1)
					continue
				}
			}
			return err
		}
		n := d.U32()
		var last []byte
		for i := uint32(0); i < n; i++ {
			k := d.Bytes()
			v := d.Bytes()
			if d.Err() != nil {
				break
			}
			last = k
			if !fn(k, v) {
				return nil
			}
		}
		more := d.U8()
		if err := d.Err(); err != nil {
			return t.fail(connLost(err))
		}
		if more == 0 {
			return nil
		}
		// Resume just past the last delivered key: its immediate successor
		// in bytewise order is last+0x00.
		cursor = append(append(make([]byte, 0, len(last)+1), last...), 0)
	}
}

// lateCommitLimit is how many consecutive deadline-expired commits one
// connection tolerates before the client rotates off it.
const lateCommitLimit = 2

// Commit implements engine.Txn. A positive response means the server's
// durability policy was satisfied; a lost connection means the outcome is
// indeterminate and surfaces as the retryable engine.ErrConnLost.
//
// A read-only transaction whose Begin response said its Commit cannot fail
// (proto.BeginEndUnawaited: SI, not SSN or Silo) is done once its last read
// returned. Its Commit is posted held for the connection's next write and
// returns nil at once; until the frame lands, at most holdDelay later, the
// server keeps its worker slot and snapshot. Should the connection die
// first, teardown aborts it, which for a read-only transaction is the same.
//
// A commit that dies of engine.ErrDeadlineExceeded is special-cased for
// failover: under semi-sync replication it is the one failure where the
// server is perfectly reachable yet cannot make progress (its replica is
// gone — possibly promoted elsewhere). Retrying against the same server
// would spin forever, so after lateCommitLimit consecutive occurrences the
// connection is failed and the address rotation advances, probing the
// fallback addresses; if none is healthier the rotation lands back here at
// the cost of one redial.
func (t *clientTxn) Commit() error {
	if t.err != nil {
		return t.err
	}
	if t.done {
		return engine.ErrAborted
	}
	t.done = true
	if !t.begun {
		return nil // the server never heard of it: nothing to commit
	}
	if t.unawaited {
		t.cn.post(proto.MsgCommit, t.payload())
		return nil
	}
	st, detail, _, err := t.rpc(proto.MsgCommit, t.payload())
	if err != nil {
		return err
	}
	err = st.Err(detail)
	switch {
	case err == nil:
		t.cn.lateCommits.Store(0)
	case errors.Is(err, engine.ErrDeadlineExceeded):
		if t.cn.lateCommits.Add(1) >= lateCommitLimit {
			t.c.rotate(t.cn, err)
		}
	}
	return err
}

// Abort implements engine.Txn. Best-effort over the wire: if the
// connection is gone the server-side session teardown aborts the orphan.
// The Abort of a transaction whose Commit is unawaited is posted held like
// that Commit; any other waits for the server, so that once it returns the
// transaction's worker slot is free and its versions are unlinked.
func (t *clientTxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	if t.err != nil || !t.begun {
		return
	}
	if t.unawaited {
		t.cn.post(proto.MsgAbort, t.payload())
		return
	}
	t.cn.call(proto.MsgAbort, t.payload())
}

var _ engine.Txn = (*clientTxn)(nil)
