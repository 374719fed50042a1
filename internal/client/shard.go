package client

import (
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// PrepareOp is one logical write in a cross-shard transaction's per-shard
// write set, shipped with MsgShardPrepare so the participant can persist it
// in a durable prepare record and re-establish its locks after a crash. Op
// is the wire op code of the original mutation (proto.MsgInsert,
// proto.MsgUpdate, proto.MsgDelete); Value is empty for deletes.
type PrepareOp struct {
	Op    byte
	Table string
	Key   []byte
	Value []byte
}

// Decided names a decision the server has acknowledged on apply
// (proto.ShardDecideOnApply) and the coordinator still holds. A prepare
// lists them so that its durable ack covers them too.
type Decided struct {
	GID    []byte
	Commit bool
}

func decideFlags(commit bool) byte {
	if commit {
		return proto.ShardDecideCommit
	}
	return 0
}

// PrepareCall is a MsgShardPrepare sent and not yet answered.
type PrepareCall struct {
	t    *clientTxn
	call txnCall
	err  error
}

// StartShardPrepare sends phase one of two-phase commit against the open
// transaction txn, which must have been started by this client, and returns
// without waiting: a coordinator sends every participant's prepare from one
// goroutine and then waits for each. The server makes the transaction's
// write set durable in a prepare record (through the same group committer
// that acks commits), parks the transaction with its locks held, and acks.
// covered rides along as the frame's decision list.
//
// The request rides the transaction's own pinned connection because server
// transaction ids are session-scoped. It carries the client's observed
// primary epoch: a deposed shard primary is fenced exactly as at Begin and
// can never ack a prepare.
func (c *Client) StartShardPrepare(txn engine.Txn, gid []byte, mapVersion uint64, ops []PrepareOp, covered []Decided) PrepareCall {
	t, ok := txn.(*clientTxn)
	if !ok {
		return PrepareCall{err: fmt.Errorf("client: ShardPrepare on a non-client transaction %T", txn)}
	}
	if t.err != nil {
		return PrepareCall{err: t.err}
	}
	if t.done {
		return PrepareCall{err: engine.ErrAborted}
	}
	p := proto.AppendU64(nil, t.id)
	p = proto.AppendU64(p, c.epochMax.Load())
	p = proto.AppendU64(p, mapVersion)
	p = proto.AppendBytes(p, gid)
	p = proto.AppendU32(p, uint32(len(ops)))
	for _, op := range ops {
		p = proto.AppendU8(p, op.Op)
		p = proto.AppendBytes(p, []byte(op.Table))
		p = proto.AppendBytes(p, op.Key)
		p = proto.AppendBytes(p, op.Value)
	}
	p = proto.AppendU32(p, uint32(len(covered)))
	for _, d := range covered {
		p = proto.AppendU8(proto.AppendBytes(p, d.GID), decideFlags(d.Commit))
	}
	call, err := t.start(proto.MsgShardPrepare, p)
	return PrepareCall{t: t, call: call, err: err}
}

// Wait blocks for the prepare's durable ack. After a nil return the
// transaction belongs to the 2PC machinery — its outcome is decided
// exclusively by ShardDecide, and the handle must not be used again. On any
// error the transaction is still the caller's to abort (unless the error
// itself is sticky transport failure, in which case server-side teardown
// cleans up).
func (p PrepareCall) Wait() error {
	if p.err != nil {
		return p.err
	}
	st, detail, _, err := p.t.finish(p.call)
	if err != nil {
		return err
	}
	if err := st.Err(detail); err != nil {
		return err
	}
	// The server now owns the transaction under gid; mark the handle spent
	// so a stray Commit/Abort cannot double-end it.
	p.t.done = true
	return nil
}

// DecideCall is a MsgShardDecide sent and not yet answered.
type DecideCall struct {
	cn  *conn
	w   waiter
	err error
}

// StartShardDecide sends the coordinator's decision for a prepared
// transaction on worker's pool connection — the one the caller's own
// transactions use, so concurrent callers do not queue on one session — and
// returns without waiting. onApply asks for the ack before the decision is
// durable (proto.ShardDecideOnApply).
func (c *Client) StartShardDecide(worker int, gid []byte, commit, onApply bool) DecideCall {
	cn, err := c.conn(worker)
	if err != nil {
		return DecideCall{err: err}
	}
	flags := decideFlags(commit)
	if onApply {
		flags |= proto.ShardDecideOnApply
	}
	w, _, err := cn.send(proto.MsgShardDecide, proto.AppendU8(proto.AppendBytes(nil, gid), flags), nil)
	return DecideCall{cn: cn, w: w, err: err}
}

// Wait blocks for the decide's ack.
func (d DecideCall) Wait() error {
	if d.err != nil {
		return d.err
	}
	st, detail, _, err := d.cn.await(d.w)
	if err != nil {
		return err
	}
	return st.Err(detail)
}

// ShardDecide delivers a decision and waits until the server has made it
// durable. It is idempotent: deciding an unknown (already resolved) gid
// answers OK, so coordinators may retry across connection losses and
// participant restarts until they get a positive ack.
func (c *Client) ShardDecide(worker int, gid []byte, commit bool) error {
	return c.StartShardDecide(worker, gid, commit, false).Wait()
}

// ShardPrepared lists the gids of the server's prepare records in [lo, hi)
// and fences the range: the server accepts no later prepare inside it. A
// coordinator restarting over a decision log that no longer names its
// undecided transactions finds them this way.
func (c *Client) ShardPrepared(lo, hi []byte) ([][]byte, error) {
	cn, err := c.conn(0)
	if err != nil {
		return nil, err
	}
	st, detail, d, err := cn.call(proto.MsgShardPrepared, proto.AppendBytes(proto.AppendBytes(nil, lo), hi))
	if err != nil {
		return nil, err
	}
	if err := st.Err(detail); err != nil {
		return nil, err
	}
	var gids [][]byte
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		gids = append(gids, append([]byte(nil), d.Bytes()...))
	}
	return gids, d.Err()
}

// ShardIdentity is a server's sharding self-description, fetched with
// FetchShardIdentity: which shard the server believes it is, under which
// shard-map version, plus the map blob it was configured with (empty when
// the operator did not embed one).
type ShardIdentity struct {
	ShardID    uint32
	MapVersion uint64
	MapBlob    []byte
}

// FetchShardIdentity asks the server which shard it serves. Routers call
// it at dial time to verify the address actually hosts the shard the map
// says it does, turning a mis-wired deployment into a typed
// engine.ErrShardMoved instead of silent mis-routing.
func (c *Client) FetchShardIdentity() (ShardIdentity, error) {
	cn, err := c.conn(0)
	if err != nil {
		return ShardIdentity{}, err
	}
	st, detail, d, err := cn.call(proto.MsgShardMap, nil)
	if err != nil {
		return ShardIdentity{}, err
	}
	if err := st.Err(detail); err != nil {
		return ShardIdentity{}, err
	}
	id := ShardIdentity{ShardID: d.U32(), MapVersion: d.U64()}
	id.MapBlob = append([]byte(nil), d.Bytes()...)
	return id, d.Err()
}
