package shard

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/client"
	"ermia/internal/engine"
	"ermia/internal/wal"
)

// Options configures a Router. The zero value is usable with NewRouter —
// one connection per shard, TCP dialing, memory-only decision log.
type Options struct {
	// PoolSize is the per-shard connection pool size (client.Options
	// semantics: worker w pins to connection w%PoolSize). Default 1.
	PoolSize int
	// DialTimeout, RequestTimeout, KeepaliveInterval pass through to each
	// shard's client pool.
	DialTimeout       time.Duration
	RequestTimeout    time.Duration
	KeepaliveInterval time.Duration
	// Dial, when set, replaces TCP dialing — the fault-injection seam for
	// tests and the nemesis harness, same as client.Options.Dial.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// DecisionLog is the directory of the coordinator's durable decision
	// log, a wal of its own (created if missing). Empty means memory-only:
	// fine for tests and single-process demos, wrong for production (a
	// coordinator crash would orphan prepared transactions).
	DecisionLog string
	// VerifyShards asks each server for its shard identity at dial time
	// and fails NewRouter with engine.ErrShardMoved if an address hosts a
	// different shard id or map version than the map claims.
	VerifyShards bool

	// CrashAfterPrepare, when set, runs after every participant has acked
	// prepare but BEFORE the commit decision is logged. Returning an error
	// simulates a coordinator crash at the most hostile instant: the
	// commit call abandons the transaction in-doubt (prepared everywhere,
	// decided nowhere, named in no log) and recovery must find it on the
	// participants and presume abort. Test/nemesis hook.
	CrashAfterPrepare func(gid []byte) error
	// CrashAfterDecision runs after the commit decision is durably logged
	// but before any participant is told. Returning an error abandons the
	// transaction with the decision on disk; recovery must drive it to
	// commit on every shard. Test/nemesis hook.
	CrashAfterDecision func(gid []byte) error
}

// Router is a sharded engine.DB: it routes every operation to the shard
// that owns the key, runs transactions that touch one shard exactly as a
// plain client would (the fast path — no coordinator state, no extra
// frames, no decision-log write), and commits transactions that wrote on
// several shards with two-phase commit. Routers are safe for concurrent
// use; individual transactions follow the usual single-goroutine contract.
type Router struct {
	m    *Map
	opts Options

	clients []*client.Client
	dlog    *decisionLog
	// queues[s] holds the commits shard s has acknowledged on apply and
	// not yet confirmed durable.
	queues []confirmQueue
	// listed[s] is set once shard s's prepare records have been searched
	// for earlier incarnations' orphans.
	listed []atomic.Bool

	// fastCommits / crossCommits split committed read-write transactions
	// by path, so benchmarks can report how much traffic paid for 2PC.
	fastCommits  atomic.Uint64
	crossCommits atomic.Uint64

	tmu    sync.Mutex
	tables map[string]*routerTable

	rmu       sync.Mutex
	resolving map[string]bool

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewRouter dials every shard in m and returns a Router over them. What a
// previous incarnation left unfinished — commit decisions in the log, and
// prepared transactions the log never heard of, found by listing each
// shard's prepare records — is re-driven in the background (see
// ResolveInDoubt for the synchronous form).
func NewRouter(m *Map, opts Options) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var st wal.Storage
	if opts.DecisionLog != "" {
		ds, err := wal.NewDirStorage(opts.DecisionLog)
		if err != nil {
			return nil, fmt.Errorf("shard: decision log: %w", err)
		}
		st = ds
	}
	return newRouter(m, opts, st)
}

// newRouter is NewRouter with the decision log over st (nil: memory-only).
func newRouter(m *Map, opts Options, st wal.Storage) (*Router, error) {
	dlog, err := openDecisionLog(st)
	if err != nil {
		return nil, err
	}
	r := &Router{
		m:         m,
		opts:      opts,
		dlog:      dlog,
		queues:    make([]confirmQueue, len(m.Shards)),
		listed:    make([]atomic.Bool, len(m.Shards)),
		tables:    make(map[string]*routerTable),
		resolving: make(map[string]bool),
		stop:      make(chan struct{}),
	}
	for i := range r.queues {
		r.queues[i].stale.Store(math.MaxUint64)
	}
	for i, sh := range m.Shards {
		c, err := client.Dial(client.Options{
			Addr:              sh.Addr,
			FallbackAddrs:     sh.Replicas,
			PoolSize:          opts.PoolSize,
			DialTimeout:       opts.DialTimeout,
			RequestTimeout:    opts.RequestTimeout,
			KeepaliveInterval: opts.KeepaliveInterval,
			Dial:              opts.Dial,
		})
		if err == nil && opts.VerifyShards {
			var id client.ShardIdentity
			if id, err = c.FetchShardIdentity(); err == nil {
				if int(id.ShardID) != i || (id.MapVersion != 0 && id.MapVersion != m.Version) {
					err = fmt.Errorf("%w: %s identifies as shard %d v%d, map says shard %d v%d",
						engine.ErrShardMoved, sh.Addr, id.ShardID, id.MapVersion, i, m.Version)
				}
			}
		}
		if err != nil {
			for _, prev := range r.clients {
				prev.Close()
			}
			dlog.close()
			return nil, fmt.Errorf("shard %d (%s): %w", i, sh.Addr, err)
		}
		r.clients = append(r.clients, c)
	}
	for i := range r.clients {
		i := i
		if dlog.log == nil {
			// A memory-only log has a fresh id: no predecessor to clean up
			// after.
			r.listed[i].Store(true)
		} else if r.adoptPrepared(i) != nil {
			r.background(fmt.Sprintf("list/%d", i), func() error { return r.adoptPrepared(i) })
		}
	}
	for _, key := range dlog.inDoubt() {
		r.resolveLater(key)
	}
	return r, nil
}

// adoptPrepared lists the prepare records earlier incarnations of this
// coordinator left on shard and takes each gid on as in doubt: to commit if
// the log holds its C record, to abort otherwise — no participant can have
// been told to commit a transaction whose C was never forced. The listing
// also fences the range on the server, so a prepare a dead incarnation
// still had in flight cannot land after it (proto.MsgShardPrepared). This
// incarnation's own gids lie above the range and are never touched.
func (r *Router) adoptPrepared(shard int) error {
	lo, hi := r.dlog.recoveryRange()
	gids, err := r.clients[shard].ShardPrepared(lo, hi)
	if err != nil {
		return err
	}
	for _, gid := range gids {
		r.dlog.adopt(gid, shard)
		r.resolveLater(string(gid))
	}
	r.listed[shard].Store(true)
	return nil
}

// Map returns the routing map the router was built with.
func (r *Router) Map() *Map { return r.m }

// PoolStats returns each shard's client-pool counter snapshot, indexed by
// shard id.
func (r *Router) PoolStats() []client.PoolStats {
	out := make([]client.PoolStats, len(r.clients))
	for i, c := range r.clients {
		out[i] = c.Stats()
	}
	return out
}

// CommitCounts reports committed read-write transactions split by path:
// fast (single-shard, no coordination) and cross (two-phase commit).
func (r *Router) CommitCounts() (fast, cross uint64) {
	return r.fastCommits.Load(), r.crossCommits.Load()
}

// routerTable is a table handle with router-wide identity (same name, same
// handle), mirroring the client's handle-identity contract.
type routerTable struct{ name string }

func (t *routerTable) Name() string { return t.name }

func (r *Router) table(name string) *routerTable {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	t, ok := r.tables[name]
	if !ok {
		t = &routerTable{name: name}
		r.tables[name] = t
	}
	return t
}

// tableOn resolves the per-shard handle for name. CreateTable (not
// OpenTable) keeps the resolution self-healing: a shard restarted from an
// older checkpoint re-creates the table instead of failing every op.
func (r *Router) tableOn(shard int, name string) engine.Table {
	return r.clients[shard].CreateTable(name)
}

// CreateTable implements engine.DB: DDL broadcasts to every shard (the
// table exists everywhere; only its rows are partitioned).
func (r *Router) CreateTable(name string) engine.Table {
	for _, c := range r.clients {
		c.CreateTable(name)
	}
	return r.table(name)
}

// OpenTable implements engine.DB; existence is judged by shard 0, which is
// authoritative because DDL always broadcasts.
func (r *Router) OpenTable(name string) engine.Table {
	if r.clients[0].OpenTable(name) == nil {
		return nil
	}
	return r.table(name)
}

// Begin implements engine.DB.
func (r *Router) Begin(worker int) engine.Txn {
	return &routerTxn{r: r, worker: worker}
}

// BeginReadOnly implements engine.DB.
func (r *Router) BeginReadOnly(worker int) engine.Txn {
	return &routerTxn{r: r, worker: worker, readOnly: true}
}

// Close stops the background resolver, asks each shard to durably confirm
// the commits it has only acknowledged on apply (so the log's last entries
// can retire), and closes every shard pool and the decision log.
// Transactions still in doubt stay for the next incarnation: those with a
// commit decision in the log, the others as prepare records it will list.
func (r *Router) Close() error { return r.shutdown(true) }

func (r *Router) shutdown(drain bool) error {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.wg.Wait()
		for shard := 0; drain && shard < len(r.queues); shard++ {
			// A failure leaves C records without their D; the next
			// incarnation re-delivers them.
			_ = r.redeliver(shard, 0)
		}
		for _, c := range r.clients {
			if err := c.Close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
		if err := r.dlog.close(); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
	})
	return r.closeErr
}

var _ engine.DB = (*Router)(nil)

// unconfirmed is a commit some shard has acknowledged on apply.
type unconfirmed struct {
	e *dlogEntry
	// dials is the shard pool's client.Dials from before the decide was
	// sent: while the count still stands there, the shard is running the
	// incarnation that applied it.
	dials uint64
}

// confirmQueue holds, for one shard, the commits it has acknowledged on
// apply and not yet confirmed durable, in the order they were queued. A
// decision leaves the queue when a later durable ack from the shard covers
// it, at no sync and no frame of its own: every MsgShardPrepare to the
// shard carries the queue as its trailing list, and the shard acks a
// prepare only once its log is durable up to the prepare record — which
// lies behind the listed decisions' records, written earlier by the same
// server incarnation (or, after a restart that lost them, re-applied from
// the list just before the record). Only Close, ResolveInDoubt and a
// reconnect pay for a confirmation with durable decides of their own.
type confirmQueue struct {
	mu    sync.Mutex
	items []unconfirmed
	first uint64 // items[0]'s position in the order decisions were queued
	// stale is the lowest dials among items, math.MaxUint64 when empty; it
	// lets routerTxn.child test for a reconnect with two atomic loads.
	stale atomic.Uint64
	// redeliver serializes durable re-deliveries of the queue.
	redeliver sync.Mutex
}

// maxCovered bounds the trailing list of one prepare.
const maxCovered = 64

func (q *confirmQueue) push(e *dlogEntry, dials uint64) {
	q.mu.Lock()
	q.items = append(q.items, unconfirmed{e: e, dials: dials})
	if dials < q.stale.Load() {
		q.stale.Store(dials)
	}
	q.mu.Unlock()
}

// head returns up to max queued decisions, oldest first, and the position
// of the last one (what pop takes to remove exactly these).
func (q *confirmQueue) head(max int) (list []client.Decided, upTo uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	if n > max {
		n = max
	}
	if n > 0 {
		list = make([]client.Decided, n)
		for i := range list {
			list[i] = client.Decided{GID: q.items[i].e.gid, Commit: true}
		}
	}
	return list, q.first + uint64(n)
}

// pop removes the decisions queued before position upTo and returns their
// entries. Positions only grow, so a late pop of an older head is a no-op.
func (q *confirmQueue) pop(upTo uint64) []unconfirmed {
	q.mu.Lock()
	defer q.mu.Unlock()
	if upTo <= q.first {
		return nil
	}
	n := int(upTo - q.first)
	if n > len(q.items) {
		n = len(q.items)
	}
	out := q.items[:n:n]
	q.items = q.items[n:]
	q.first += uint64(n)
	stale := uint64(math.MaxUint64)
	for _, it := range q.items {
		if it.dials < stale {
			stale = it.dials
		}
	}
	q.stale.Store(stale)
	return out
}

// confirmed records a durable ack from shard covering every decision queued
// before upTo; entries whose last participant this was retire.
func (r *Router) confirmed(shard int, upTo uint64) {
	for _, it := range r.queues[shard].pop(upTo) {
		r.dlog.confirm(it.e, shard)
	}
}

// redeliver sends shard a plain durable decide for everything in its queue
// and, if all are acknowledged, confirms them.
func (r *Router) redeliver(shard, worker int) error {
	q := &r.queues[shard]
	q.redeliver.Lock()
	defer q.redeliver.Unlock()
	list, upTo := q.head(math.MaxInt)
	calls := make([]client.DecideCall, len(list))
	for i, d := range list {
		calls[i] = r.clients[shard].StartShardDecide(worker, d.GID, true, false)
	}
	var first error
	for _, call := range calls {
		if err := call.Wait(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	r.confirmed(shard, upTo)
	return nil
}

// commitCross is the two-phase commit coordinator, reached only when a
// transaction wrote on two or more shards. The caller waits for two forced
// writes and one plain round trip:
//
//	prepare all (parallel, each on its txn's own session; acked durable)
//	log C (fsync)
//	decide commit all (parallel, caller's connections; acked on apply)
//
// The C fsync is the commit point: before it, recovery presumes abort and
// every participant can be rolled back; after it, the transaction WILL
// commit on every shard — participants hold durable prepare records, so
// crashes on either side only delay the decides, never change the outcome.
// The decides are acknowledged as soon as the commit is applied, which is
// all the caller needs: the commit is visible to every later transaction,
// and should a participant lose it in a crash, its prepare record and this
// router's entry bring it back before anyone can look (routerTxn.child).
// The entry retires once each participant has confirmed durably, through
// confirmQueue. A decide that cannot be delivered leaves the transaction
// in-doubt: the caller gets engine.ErrTxnInDoubt (retryable only under
// idempotent bodies) and a background resolver re-drives the decision until
// every shard acks.
func (r *Router) commitCross(worker int, writers []*childTxn) error {
	shards := make([]int, len(writers))
	for i, c := range writers {
		shards[i] = c.shard
	}
	e := r.dlog.begin(shards)
	// While the entry is owned the resolvers pass it over, so a resolver
	// for what this attempt leaves undelivered starts only once it is not.
	undelivered := false
	defer func() {
		r.dlog.release(e)
		if undelivered {
			r.resolveLater(string(e.gid))
		}
	}()

	// Phase one. Each prepare rides its transaction's pinned connection
	// (transaction ids are session-scoped) and acks only once the prepare
	// record is durable under the shard's commit policy — and with it every
	// earlier decision the frame lists.
	type participant struct {
		call  client.PrepareCall
		upTo  uint64 // the prepare's trailing list ends here in the shard's queue
		err   error
		dials uint64
	}
	parts := make([]participant, len(writers))
	for i, c := range writers {
		covered, upTo := r.queues[c.shard].head(maxCovered)
		parts[i] = participant{upTo: upTo, call: r.clients[c.shard].StartShardPrepare(c.txn, e.gid, r.m.Version, c.writes, covered)}
	}
	var prepErr error
	for i, c := range writers {
		p := &parts[i]
		if p.err = p.call.Wait(); p.err == nil {
			r.confirmed(c.shard, p.upTo)
		} else if prepErr == nil {
			prepErr = p.err
		}
	}
	if prepErr != nil {
		// Abort decision; nothing is logged. Participants whose prepare
		// failed cleanly still own their transaction (plain abort); every
		// shard additionally gets a decide-abort, which covers prepares
		// that landed but whose ack was lost — deciding an unknown gid is
		// an idempotent no-op. The acks are durable ones, so the entry can
		// be dropped: a prepare record that outlived its abort would have
		// nobody left to resolve it.
		for i, c := range writers {
			if parts[i].err != nil {
				c.txn.Abort()
			}
		}
		undelivered = r.deliver(worker, e, false, shards, false) != nil
		return prepErr
	}

	if hook := r.opts.CrashAfterPrepare; hook != nil {
		if err := hook(e.gid); err != nil {
			// Simulated coordinator death before the decision: no decides
			// go out, no resolver is scheduled, and no log names the gid.
			// Only recovery can resolve it — to abort, since no C record
			// exists.
			return fmt.Errorf("%w: coordinator crashed after prepare (gid %x)", engine.ErrTxnInDoubt, e.gid)
		}
	}

	if err := r.dlog.decide(e); err != nil {
		// The commit decision could not be made durable, so it was never
		// made: presume abort, exactly as recovery would.
		undelivered = r.deliver(worker, e, false, shards, false) != nil
		return fmt.Errorf("shard: decision log: %w", err)
	}

	if hook := r.opts.CrashAfterDecision; hook != nil {
		if err := hook(e.gid); err != nil {
			// Simulated death after the commit point: the C record is on
			// disk, participants are prepared. Recovery must finish the
			// commit on every shard.
			return fmt.Errorf("%w: coordinator crashed after decision (gid %x)", engine.ErrTxnInDoubt, e.gid)
		}
	}

	// Phase two, acknowledged on apply. The dial counts are read before
	// the decides go out: should a shard restart at any point after, the
	// count moves and the queued decision is re-delivered.
	for i, sh := range shards {
		parts[i].dials = r.clients[sh].Dials()
	}
	if r.deliver(worker, e, true, shards, true) != nil {
		undelivered = true
		return fmt.Errorf("%w: commit decided but not acknowledged by every shard (gid %x)", engine.ErrTxnInDoubt, e.gid)
	}
	r.dlog.markApplied(e)
	for i, sh := range shards {
		r.queues[sh].push(e, parts[i].dials)
	}
	r.crossCommits.Add(1)
	return nil
}

// deliver sends e's decision to shards — every frame from the calling
// goroutine, on worker's connections, before the first ack is awaited — and
// returns the first failure. Without onApply the acks are durable ones and
// each confirms its shard.
func (r *Router) deliver(worker int, e *dlogEntry, commit bool, shards []int, onApply bool) error {
	calls := make([]client.DecideCall, len(shards))
	for i, sh := range shards {
		if sh >= 0 && sh < len(r.clients) {
			calls[i] = r.clients[sh].StartShardDecide(worker, e.gid, commit, onApply)
		}
	}
	var first error
	for i, sh := range shards {
		if sh < 0 || sh >= len(r.clients) {
			// A shard this map does not have (a log from another
			// deployment) has nothing to confirm.
			r.dlog.confirm(e, sh)
		} else if err := calls[i].Wait(); err != nil {
			if first == nil {
				first = err
			}
		} else if !onApply {
			r.dlog.confirm(e, sh)
		}
	}
	return first
}

// resolveOne re-drives the decision for one in-doubt gid to every
// participant that has not confirmed it, retiring the entry once all have.
// Presumed abort: an entry without a durable commit decision is driven to
// abort. Entries whose commitCross is still running are not in doubt yet
// and are left alone.
func (r *Router) resolveOne(key string) error {
	e, commit, todo := r.dlog.undelivered(key)
	if e == nil {
		return nil
	}
	return r.deliver(0, e, commit, todo, false)
}

// resolveLater schedules background resolution for a gid, retrying with
// backoff until it succeeds or the router closes.
func (r *Router) resolveLater(key string) {
	r.background(key, func() error { return r.resolveOne(key) })
}

// background runs fn until it succeeds or the router closes, backing off
// between attempts. At most one runs per key.
func (r *Router) background(key string, fn func() error) {
	r.rmu.Lock()
	if r.resolving[key] {
		r.rmu.Unlock()
		return
	}
	r.resolving[key] = true
	r.rmu.Unlock()
	r.wg.Add(1)
	go r.retryLoop(key, fn)
}

func (r *Router) retryLoop(key string, fn func() error) {
	defer r.wg.Done()
	defer func() {
		r.rmu.Lock()
		delete(r.resolving, key)
		r.rmu.Unlock()
	}()
	backoff := 10 * time.Millisecond
	for {
		if fn() == nil {
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// ResolveInDoubt synchronously re-drives every in-doubt transaction once —
// first searching any shard not yet searched for a previous incarnation's
// orphans — and returns how many it resolved and the first delivery error.
// In doubt means the decision has not reached every participant; commits
// that are applied everywhere and only await their durable confirmation
// are confirmed too (with plain durable decides) but not counted. Recovery
// tooling and tests call it after restarting a router over an existing
// decision log; the background resolver keeps retrying whatever this pass
// could not reach.
func (r *Router) ResolveInDoubt() (resolved int, err error) {
	note := func(e error) {
		if err == nil {
			err = e
		}
	}
	for shard := range r.listed {
		if !r.listed[shard].Load() {
			if e := r.adoptPrepared(shard); e != nil {
				note(e)
			}
		}
	}
	for _, key := range r.dlog.inDoubt() {
		if e := r.resolveOne(key); e != nil {
			note(e)
			r.resolveLater(key)
			continue
		}
		resolved++
	}
	for shard := range r.queues {
		if e := r.redeliver(shard, 0); e != nil {
			note(e)
		}
	}
	return resolved, err
}
