// Package client is the network counterpart of the ermia public API: a
// connection-pooled, pipelined client for internal/server that implements
// engine.DB, so application code — including engine.RunWithRetry — runs
// unchanged against a remote database. Wire statuses are mapped back onto
// the engine error taxonomy: a write-write conflict on the server is
// errors.Is(err, engine.ErrWriteConflict) on the client, a dead connection
// is the retryable engine.ErrConnLost, and a draining server is the
// non-retryable engine.ErrShutdown.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// errClientClosed reports use of a closed client. Deliberately NOT
// engine.ErrConnLost: retrying against a closed client cannot succeed.
var errClientClosed = errors.New("client: closed")

// Options configures a client.
type Options struct {
	// Addr is the server's TCP address. Required.
	Addr string
	// FallbackAddrs are alternative server addresses tried in order when a
	// redial of the current address fails — typically the replicas of Addr.
	// After a primary failure an operator promotes a replica and clients
	// fail over by rotating onto it; transactions in flight during the
	// switch surface the retryable engine.ErrConnLost, so RunWithRetry
	// loops converge on the new primary without application changes.
	FallbackAddrs []string
	// PoolSize is the number of connections; Begin pins transaction w to
	// connection w%PoolSize, so concurrent workers spread across the pool
	// while each transaction stays on the session that owns it. Default 1.
	PoolSize int
	// DialTimeout bounds each dial. Default 5s.
	DialTimeout time.Duration
	// Dial, when set, replaces net.DialTimeout — the seam through which the
	// fault-injecting transport (internal/faultconn) is threaded in tests
	// and the nemesis harness. Nil uses TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// RequestTimeout, when positive, bounds every request: the budget rides
	// the frame header so the server aborts overdue work server-side, and
	// the client gives up waiting at twice the budget (covering the reply's
	// flight) — failing the connection, since a pipeline with a hole in it
	// cannot be trusted. Expiry surfaces as the retryable
	// engine.ErrDeadlineExceeded; for a commit the outcome is indeterminate,
	// exactly like engine.ErrConnLost. Zero means no deadline.
	RequestTimeout time.Duration
	// KeepaliveInterval, when positive, sends a Ping on each pool connection
	// this often. Keepalives hold idle connections inside the server's
	// IdleTimeout, refresh the client's view of the primary epoch, and tear
	// down connections to a deposed (stale-epoch) server so the next use
	// fails over. Zero disables.
	KeepaliveInterval time.Duration
}

// Client is a remote engine.DB. All methods are safe for concurrent use.
// Connections are dialed lazily and redialed transparently after failures,
// so a client survives a server restart: in-flight work fails with the
// retryable engine.ErrConnLost and the next attempt reconnects.
type Client struct {
	opts Options

	mu     sync.Mutex
	conns  []*conn
	closed bool
	// addrIdx rotates through Addr + FallbackAddrs: 0 is Addr, i>0 is
	// FallbackAddrs[i-1]. All pool connections follow the same index so the
	// client talks to one server at a time.
	addrIdx int

	// epochMax is the highest primary epoch any response has carried. A
	// server reporting (or refusing with) a lower epoch is a deposed primary
	// that healed back into view; the client drops it and rotates.
	epochMax atomic.Uint64

	tmu    sync.Mutex
	tables map[string]*clientTable // handle identity: same name, same handle

	// counters are the pool-level health counters surfaced by Stats. They
	// attribute wire-layer overhead (redials, retries, failovers) separately
	// from the server's own counters, which is what lets a shard-bench run
	// tell "the workload is slow" apart from "the pool is churning".
	counters poolCounters
}

// poolCounters backs PoolStats; shared by the client and its connections.
type poolCounters struct {
	requests   atomic.Uint64
	retries    atomic.Uint64
	connLosses atomic.Uint64
	rotations  atomic.Uint64
	dials      atomic.Uint64
}

// PoolStats is a snapshot of the client pool's own counters (as opposed to
// ServerStats, which fetches the remote server's).
type PoolStats struct {
	// Requests counts request frames issued on pool connections, including
	// pings and retried attempts.
	Requests uint64
	// Retries counts client-internal transparent retries: stale table
	// handles re-created after a server restart.
	Retries uint64
	// ConnLosses counts pool connections that died (transport error,
	// request timeout) — client Close excluded.
	ConnLosses uint64
	// Rotations counts address-rotation advances: explicit failovers off a
	// distrusted server plus dial-time skips of an unreachable or deposed
	// address.
	Rotations uint64
}

// Stats returns the pool-level counter snapshot. It is purely local — no
// network round trip; use ServerStats for the remote server's counters.
func (c *Client) Stats() PoolStats {
	return PoolStats{
		Requests:   c.counters.requests.Load(),
		Retries:    c.counters.retries.Load(),
		ConnLosses: c.counters.connLosses.Load(),
		Rotations:  c.counters.rotations.Load(),
	}
}

// Dials counts the connections the pool has established, each one's first
// included. While it stands still, every connection the client holds leads
// to the server incarnation earlier responses came from; a caller that
// must notice a server restart compares it before and after.
func (c *Client) Dials() uint64 { return c.counters.dials.Load() }

// Dial connects to a server. The first connection is dialed eagerly so a
// bad address fails here rather than on first use.
func Dial(opts Options) (*Client, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 1
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{
		opts:   opts,
		conns:  make([]*conn, opts.PoolSize),
		tables: make(map[string]*clientTable),
	}
	if _, err := c.conn(0); err != nil {
		return nil, err
	}
	return c, nil
}

// conn returns pool connection i%PoolSize, dialing or redialing as needed.
func (c *Client) conn(i int) (*conn, error) {
	// Unsigned, so that a negative i (math.MinInt included, which has no
	// negation) still lands inside the pool.
	idx := int(uint(i) % uint(c.opts.PoolSize))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if cn := c.conns[idx]; cn != nil && !cn.isBroken() {
		return cn, nil
	}
	// Try the current address first, then rotate through the fallbacks.
	// One full rotation per conn() call: a dead fleet still fails fast.
	addrs := 1 + len(c.opts.FallbackAddrs)
	var firstErr error
	for attempt := 0; attempt < addrs; attempt++ {
		cn, err := dialConn(c.addr(), c.opts, &c.counters)
		if err == nil {
			// Ping handshake: learn the server's epoch before trusting it.
			// A deposed primary that healed back into view reports an epoch
			// below our high-water mark and is skipped like a failed dial.
			if ep, _, perr := cn.ping(); perr != nil {
				cn.close()
				err = perr
			} else if ep < c.epochMax.Load() {
				cn.close()
				err = fmt.Errorf("%w: server epoch %d < observed %d at %s",
					engine.ErrStaleEpoch, ep, c.epochMax.Load(), c.addr())
			} else {
				c.noteEpoch(ep)
				c.conns[idx] = cn
				c.counters.dials.Add(1)
				if c.opts.KeepaliveInterval > 0 {
					go c.keepalive(cn)
				}
				return cn, nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
		c.addrIdx = (c.addrIdx + 1) % addrs
		c.counters.rotations.Add(1)
	}
	if errors.Is(firstErr, engine.ErrStaleEpoch) {
		return nil, firstErr
	}
	return nil, connLost(firstErr)
}

// noteEpoch raises the client's primary-epoch high-water mark.
func (c *Client) noteEpoch(e uint64) {
	for {
		cur := c.epochMax.Load()
		if e <= cur || c.epochMax.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the highest primary epoch the client has observed.
func (c *Client) Epoch() uint64 { return c.epochMax.Load() }

// rotate drops a connection to a server the client no longer trusts (lost,
// deposed, …) and advances the address rotation so the next dial tries the
// next server.
func (c *Client) rotate(cn *conn, cause error) {
	cn.fail(cause)
	c.mu.Lock()
	c.addrIdx = (c.addrIdx + 1) % (1 + len(c.opts.FallbackAddrs))
	c.mu.Unlock()
	c.counters.rotations.Add(1)
}

// keepalive pings cn every KeepaliveInterval until it breaks, refreshing the
// epoch high-water mark and dropping the connection if the server turns out
// to be a deposed primary.
func (c *Client) keepalive(cn *conn) {
	t := time.NewTicker(c.opts.KeepaliveInterval)
	defer t.Stop()
	for range t.C {
		if cn.isBroken() {
			return
		}
		ep, _, err := cn.ping()
		if err != nil {
			return
		}
		if ep < c.epochMax.Load() {
			c.rotate(cn, fmt.Errorf("%w: keepalive saw epoch %d < observed %d",
				engine.ErrStaleEpoch, ep, c.epochMax.Load()))
			return
		}
		c.noteEpoch(ep)
	}
}

// Ping round-trips a liveness probe on pool connection 0, returning the
// server's primary epoch and engine health.
func (c *Client) Ping() (epoch uint64, health engine.HealthState, err error) {
	cn, err := c.conn(0)
	if err != nil {
		return 0, 0, err
	}
	epoch, health, err = cn.ping()
	if err == nil {
		c.noteEpoch(epoch)
	}
	return epoch, health, err
}

// addr returns the address the pool currently points at. Caller holds c.mu.
func (c *Client) addr() string {
	if c.addrIdx == 0 {
		return c.opts.Addr
	}
	return c.opts.FallbackAddrs[c.addrIdx-1]
}

// Close closes every pool connection. Open remote transactions are aborted
// by server-side session teardown.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, cn := range c.conns {
		if cn != nil {
			cn.close()
		}
	}
	return nil
}

// clientTable is a remote table handle. Ops carry the table name on the
// wire, so handles stay valid across reconnects and server restarts.
type clientTable struct {
	c       *Client
	name    string
	ensured bool // CreateTable acknowledged by the server
	mu      sync.Mutex
}

// Name implements engine.Table.
func (t *clientTable) Name() string { return t.name }

// ensure retries the remote CreateTable if the original attempt was lost to
// a connection failure.
func (t *clientTable) ensure(cn *conn) error {
	t.mu.Lock()
	done := t.ensured
	t.mu.Unlock()
	if done {
		return nil
	}
	st, detail, _, err := cn.call(proto.MsgCreateTable, proto.AppendBytes(nil, []byte(t.name)))
	if err != nil {
		return err
	}
	if err := st.Err(detail); err != nil {
		return err
	}
	t.mu.Lock()
	t.ensured = true
	t.mu.Unlock()
	return nil
}

// recreate forces a fresh remote CreateTable; used when the server reports
// the table unknown (its creation was lost to a restart).
func (t *clientTable) recreate(cn *conn) error {
	t.mu.Lock()
	t.ensured = false
	t.mu.Unlock()
	return t.ensure(cn)
}

// handle returns the cached table handle for name, creating it if absent.
// Caching keeps handle identity: CreateTable and OpenTable of the same name
// return the same engine.Table, matching in-process engines.
func (c *Client) handle(name string) *clientTable {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		t = &clientTable{c: c, name: name}
		c.tables[name] = t
	}
	return t
}

// CreateTable makes (or opens) the named table on the server. Network
// failures are absorbed: the returned handle re-attempts creation on first
// use, so retry loops converge once the server is reachable.
func (c *Client) CreateTable(name string) engine.Table {
	t := c.handle(name)
	if cn, err := c.conn(0); err == nil {
		t.ensure(cn)
	}
	return t
}

// OpenTable returns a handle to an existing table, or nil if the server
// does not have it (or cannot be reached).
func (c *Client) OpenTable(name string) engine.Table {
	cn, err := c.conn(0)
	if err != nil {
		return nil
	}
	st, detail, _, err := cn.call(proto.MsgOpenTable, proto.AppendBytes(nil, []byte(name)))
	if err != nil || st.Err(detail) != nil {
		return nil
	}
	t := c.handle(name)
	t.mu.Lock()
	t.ensured = true
	t.mu.Unlock()
	return t
}

// Begin starts a read-write transaction pinned to pool connection
// worker%PoolSize. It costs no round trip: the client picks the
// transaction's handle itself and the MsgBegin frame is held back until the
// first frame that names the transaction, which it then precedes in the
// same write. The server therefore takes the snapshot (and a worker slot)
// when it first hears of the transaction — at its first operation, never
// earlier than Begin returned. Failures, a refused Begin included, surface
// on the returned transaction's operations (engine.DB.Begin has no error
// return).
func (c *Client) Begin(worker int) engine.Txn { return c.begin(worker, 0) }

// BeginReadOnly starts a read-only transaction.
func (c *Client) BeginReadOnly(worker int) engine.Txn {
	return c.begin(worker, proto.BeginReadOnly)
}

func (c *Client) begin(worker int, flags byte) engine.Txn {
	cn, err := c.conn(worker)
	if err != nil {
		return &clientTxn{err: err}
	}
	return &clientTxn{c: c, cn: cn, id: proto.ClientTxnBit | cn.nextTxn.Add(1), flags: flags}
}

// Health fetches the server's engine health snapshot. Cause is the causing
// fault's text ("" when healthy).
func (c *Client) Health() (state engine.HealthState, cause string, err error) {
	cn, err := c.conn(0)
	if err != nil {
		return 0, "", err
	}
	st, detail, d, err := cn.call(proto.MsgHealth, nil)
	if err != nil {
		return 0, "", err
	}
	if err := st.Err(detail); err != nil {
		return 0, "", err
	}
	state = engine.HealthState(d.U8())
	cause = string(d.Bytes())
	return state, cause, d.Err()
}

// ServerStats is the server-level counter snapshot (see server.StatsSnapshot).
type ServerStats struct {
	Conns         uint32
	OpenTxns      uint32
	Commits       uint64
	Aborts        uint64
	GroupBatches  uint64
	GroupCommits  uint64
	DurableOffset uint64

	ReplSubscribers   uint32
	ReplBatches       uint64
	ReplShippedOffset uint64
	ReplAckedOffset   uint64

	Checkpoints uint64

	PreparedTxns  uint32
	ShardPrepares uint64
	ShardDecides  uint64
}

// ServerStats fetches the remote server's counters.
func (c *Client) ServerStats() (ServerStats, error) {
	var out ServerStats
	cn, err := c.conn(0)
	if err != nil {
		return out, err
	}
	st, detail, d, err := cn.call(proto.MsgStats, nil)
	if err != nil {
		return out, err
	}
	if err := st.Err(detail); err != nil {
		return out, err
	}
	out.Conns = d.U32()
	out.OpenTxns = d.U32()
	out.Commits = d.U64()
	out.Aborts = d.U64()
	out.GroupBatches = d.U64()
	out.GroupCommits = d.U64()
	out.DurableOffset = d.U64()
	out.ReplSubscribers = d.U32()
	out.ReplBatches = d.U64()
	out.ReplShippedOffset = d.U64()
	out.ReplAckedOffset = d.U64()
	out.Checkpoints = d.U64()
	out.PreparedTxns = d.U32()
	out.ShardPrepares = d.U64()
	out.ShardDecides = d.U64()
	return out, d.Err()
}

// Reattach asks the server to heal a degraded engine (admin operation); it
// returns the server's reattach report text.
func (c *Client) Reattach() (string, error) {
	cn, err := c.conn(0)
	if err != nil {
		return "", err
	}
	st, detail, d, err := cn.call(proto.MsgReattach, nil)
	if err != nil {
		return "", err
	}
	if err := st.Err(detail); err != nil {
		return "", err
	}
	report := string(d.Bytes())
	return report, d.Err()
}

// Promote asks the server to promote its replica engine to primary (admin
// operation); it returns the server's promotion report text.
func (c *Client) Promote() (string, error) {
	cn, err := c.conn(0)
	if err != nil {
		return "", err
	}
	st, detail, d, err := cn.call(proto.MsgPromote, nil)
	if err != nil {
		return "", err
	}
	if err := st.Err(detail); err != nil {
		return "", err
	}
	report := string(d.Bytes())
	return report, d.Err()
}

// Checkpoint asks the server to publish a consistent checkpoint now (admin
// operation). With truncate set the server also frees sealed log segments
// below the checkpoint. It returns the checkpoint-begin offset and how many
// segments truncation removed.
func (c *Client) Checkpoint(truncate bool) (begin uint64, freed uint32, err error) {
	cn, err := c.conn(0)
	if err != nil {
		return 0, 0, err
	}
	var flags byte
	if truncate {
		flags |= proto.CkptTruncate
	}
	st, detail, d, err := cn.call(proto.MsgCheckpoint, proto.AppendU8(nil, flags))
	if err != nil {
		return 0, 0, err
	}
	if err := st.Err(detail); err != nil {
		return 0, 0, err
	}
	begin = d.U64()
	freed = d.U32()
	return begin, freed, d.Err()
}

var _ engine.DB = (*Client)(nil)
