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

// ShardPrepare runs phase one of two-phase commit against the open
// transaction txn, which must have been started by this client: the server
// makes the transaction's write set durable in a prepare record (through
// the same group committer that acks commits), parks the transaction with
// its locks held, and acks. After a nil return the transaction belongs to
// the 2PC machinery — its outcome is decided exclusively by ShardDecide,
// and the handle must not be used again. On any error the transaction is
// still the caller's to abort (unless the error itself is sticky transport
// failure, in which case server-side teardown cleans up).
//
// The request rides the transaction's own pinned connection because server
// transaction ids are session-scoped. It carries the client's observed
// primary epoch: a deposed shard primary is fenced exactly as at Begin and
// can never ack a prepare.
func (c *Client) ShardPrepare(txn engine.Txn, gid []byte, mapVersion uint64, ops []PrepareOp) error {
	t, ok := txn.(*clientTxn)
	if !ok {
		return fmt.Errorf("client: ShardPrepare on a non-client transaction %T", txn)
	}
	if t.err != nil {
		return t.err
	}
	if t.done {
		return engine.ErrAborted
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
	st, detail, _, err := t.rpc(proto.MsgShardPrepare, p)
	if err != nil {
		return err
	}
	if err := st.Err(detail); err != nil {
		return err
	}
	// The server now owns the transaction under gid; mark the handle spent
	// so a stray Commit/Abort cannot double-end it.
	t.done = true
	return nil
}

// ShardDecide delivers the coordinator's decision for a prepared
// transaction. It is idempotent: deciding an unknown (already resolved)
// gid answers OK, so coordinators may retry across connection losses and
// participant restarts until they get a positive ack. A commit decision
// acks only after the commit is durable under the server's policy.
func (c *Client) ShardDecide(gid []byte, commit bool) error {
	cn, err := c.conn(0)
	if err != nil {
		return err
	}
	p := proto.AppendBytes(nil, gid)
	flag := byte(0)
	if commit {
		flag = 1
	}
	p = proto.AppendU8(p, flag)
	st, detail, _, err := cn.call(proto.MsgShardDecide, p)
	if err != nil {
		return err
	}
	return st.Err(detail)
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
