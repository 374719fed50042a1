// Package server puts an engine behind a TCP socket: per-connection
// sessions speak the internal/proto framing with arbitrary request
// pipelining, a bounded worker-slot pool applies admission control across
// connections, and commit durability is acknowledged through a
// cross-connection group committer — many concurrent sessions share one
// WaitDurable wakeup per device sync instead of paying one fsync wait each,
// which is exactly the amortization ERMIA's centralized log (one
// fetch-and-add per commit) was designed to feed.
//
// Lifecycle rules:
//
//   - A transaction belongs to the session that began it; its id is only
//     meaningful on that connection.
//   - Every transaction holds one engine worker slot from Begin until
//     Commit/Abort returns. The pool bounds in-flight transactions
//     server-wide; an empty pool refuses Begin with StatusOverloaded
//     (retryable) rather than queueing, so a session's pipeline can never
//     deadlock behind its own open transactions.
//   - Session teardown — graceful or forced — aborts still-open
//     transactions through the normal engine Abort path, so epoch slots,
//     TID-table entries, and reader marks are reclaimed exactly as if the
//     client had aborted.
//   - Shutdown drains: the listener closes, new Begins are refused with
//     StatusShuttingDown, in-flight transactions run to completion, and
//     every response already owed (including group-commit acks) is flushed
//     before the connection closes. Past the context deadline, connections
//     are force-closed and orphans aborted.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/wal"
)

// Durability selects what a positive Commit response promises.
type Durability int

const (
	// DurabilityGroup (the default) acknowledges commits from the
	// cross-connection group committer: one WaitDurable covers every commit
	// that arrived while the previous device sync was in flight.
	DurabilityGroup Durability = iota
	// DurabilityNone acknowledges as soon as the commit is logically
	// applied; durability rides behind on the engine's background flusher.
	DurabilityNone
)

func (d Durability) String() string {
	switch d {
	case DurabilityGroup:
		return "group"
	case DurabilityNone:
		return "none"
	default:
		return fmt.Sprintf("durability(%d)", int(d))
	}
}

// Config configures a Server.
type Config struct {
	// DB is the engine to serve. Required, and it must implement
	// engine.Durable: the group committer waits on it, and Health, Stats and
	// the admin Reattach frame are served from it.
	DB engine.DB
	// MaxConns caps concurrent connections; further dials wait in the
	// listen backlog (backpressure) rather than being churned. Default 64.
	MaxConns int
	// Workers is the size of the worker-slot pool shared by all sessions;
	// it bounds in-flight transactions server-wide and must not exceed the
	// engine's worker capacity (256 for the ERMIA core). Default 64.
	Workers int
	// Durability selects the commit acknowledgment policy.
	Durability Durability
	// PromoteFn, when set, serves the admin Promote frame: promote a
	// replica engine to primary and return a human-readable report (wire
	// it to repl.Replica.Promote). Nil refuses the frame.
	PromoteFn func() (string, error)
	// WriteTimeout bounds each response write so a peer that stops reading
	// is disconnected instead of wedging the session goroutine that writes
	// to it. Default 30s.
	WriteTimeout time.Duration
	// IdleTimeout, when positive, disconnects a session that sends no frame
	// for this long. Live clients stay inside it with Ping keepalives;
	// replication subscribers stay inside it because heartbeats elicit acks.
	// It is the half-open-connection reaper: without it a peer that
	// vanished without a FIN holds its connection slot forever. Zero
	// disables.
	IdleTimeout time.Duration
	// SyncRepl makes group-commit acknowledgments semi-synchronous: a write
	// commit is acknowledged only after a replication subscriber has
	// acknowledged applying the log through that commit. Combined with
	// epoch fencing this is what makes automatic failover lose no acked
	// commit: anything acked lives on the replica that will be promoted,
	// and a deposed primary cannot ack (its subscriber is gone, so waits
	// expire). Requires DurabilityGroup.
	SyncRepl bool
	// SyncReplWait caps how long a SyncRepl commit waits for the replica's
	// acknowledgment when the request carries no deadline of its own; such
	// commits fail with StatusDeadlineExceeded (retryable, outcome
	// indeterminate). Default 5s.
	SyncReplWait time.Duration
	// Epoch seeds the server's primary epoch number (see Server.SetEpoch).
	Epoch uint64
	// ReplHeartbeat, when positive, makes replication streams emit a
	// heartbeat frame (epoch + durable offset) at most this often while
	// caught up, so subscribers can detect a dead primary by silence.
	// Zero disables heartbeats.
	ReplHeartbeat time.Duration
	// ShardID is this server's shard number in a sharded deployment, served
	// by the MsgShardMap frame so routers can verify an address actually
	// hosts the shard their map claims. Meaningful only with a non-zero
	// ShardMapVersion; standalone servers leave both zero.
	ShardID uint32
	// ShardMapVersion is the shard-map version this server was deployed
	// under. When non-zero, MsgShardPrepare requests carrying a different
	// version are refused with StatusShardMoved (the router's map is stale).
	// Zero disables the check (standalone or test deployments).
	ShardMapVersion uint64
	// ShardMapBlob is the encoded shard map the operator deployed this
	// server with, served verbatim by MsgShardMap so a client can bootstrap
	// routing from any one shard. Optional.
	ShardMapBlob []byte
}

// StatsSnapshot is the server-level counter set served by the Stats frame.
type StatsSnapshot struct {
	Conns         uint32 // current connections
	OpenTxns      uint32 // transactions currently holding a slot
	Commits       uint64 // positively acknowledged commits
	Aborts        uint64 // aborts, including conflict-failed commits
	GroupBatches  uint64 // group-commit wakeups
	GroupCommits  uint64 // commits acknowledged by those wakeups
	DurableOffset uint64 // engine durability horizon

	// Replication (primary side: shipping; replica side these stay 0 and
	// the replica's own progress is reported by its process).
	ReplSubscribers   uint32 // live replication subscriptions
	ReplBatches       uint64 // batches shipped across all subscribers
	ReplShippedOffset uint64 // highest offset shipped to any subscriber
	ReplAckedOffset   uint64 // highest watermark acknowledged by any subscriber

	// Checkpoints counts checkpoint frames served successfully.
	Checkpoints uint64

	// Sharding / two-phase-commit counters.
	PreparedTxns  uint32 // transactions currently parked in the prepared state
	ShardPrepares uint64 // prepare requests acknowledged
	ShardDecides  uint64 // decide requests applied (commit or abort)
}

// Server serves one engine over TCP.
type Server struct {
	cfg Config
	db  engine.DB
	// dur is db's durability capability; ckpt is its checkpoint and log
	// shipping capability, nil on an engine without one (Silo), which
	// refuses those frames.
	dur  engine.Durable
	ckpt engine.Checkpointer
	// roEcho is the flags byte a read-only Begin's response carries:
	// proto.BeginEndUnawaited when the engine's read-only commits cannot
	// fail.
	roEcho byte

	ln       net.Listener
	lnMu     sync.Mutex
	doneCh   chan struct{} // closed when Shutdown begins (drain signal)
	connSem  chan struct{}
	slots    chan int
	gc       *groupCommitter
	sessWG   sync.WaitGroup
	sessMu   sync.Mutex
	sessions map[*session]struct{}

	conns    atomic.Int32
	openTxns atomic.Int32
	commits  atomic.Uint64
	aborts   atomic.Uint64

	replSubscribers atomic.Int32
	replBatches     atomic.Uint64
	replShipped     atomic.Uint64
	replAcked       atomic.Uint64
	checkpoints     atomic.Uint64

	// prepared parks cross-shard transactions between prepare and decide.
	// Entries are server-global (a decide may arrive on any connection, and
	// the preparing session may die first); each holds its engine
	// transaction — locks intact — and its worker slot until the
	// coordinator's decision lands. See shard.go.
	prepMu        sync.Mutex
	prepared      map[string]*preparedTxn
	prepTblOnce   sync.Once
	prepTbl       engine.Table
	shardPrepares atomic.Uint64
	shardDecides  atomic.Uint64
	// fences are the gid ranges recovering coordinators have listed; no
	// prepare inside one is accepted any more. Prepares hold fenceMu shared
	// across the check and the record write. See shard.go, fencePrepares.
	fenceMu sync.RWMutex
	fences  []gidRange

	// epoch is the primary epoch this server believes it serves in; stamped
	// into repl batches and Ping responses, checked against the client's
	// Begin frames (a client that has seen a higher epoch is refused with
	// StatusStaleEpoch — the fencing check for deposed primaries).
	epoch atomic.Uint64
	// commitEpochs counts positively acknowledged write commits per epoch:
	// the nemesis single-writer audit asserts no two servers ever acked
	// write commits in the same epoch.
	epochMu      sync.Mutex
	commitEpochs map[uint64]uint64

	shutOnce sync.Once
	shutErr  error
}

// New builds a Server around cfg.DB. Call Serve or ListenAndServe to start
// accepting.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	dur, ok := cfg.DB.(engine.Durable)
	if !ok {
		return nil, fmt.Errorf("server: engine %T does not implement engine.Durable", cfg.DB)
	}
	ckpt, _ := cfg.DB.(engine.Checkpointer)
	var roEcho byte
	if rc, ok := cfg.DB.(engine.ReadOnlyCommitter); ok && rc.ReadOnlyCommitCannotFail() {
		roEcho = proto.BeginEndUnawaited
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.SyncReplWait <= 0 {
		cfg.SyncReplWait = 5 * time.Second
	}
	if cfg.SyncRepl && cfg.Durability != DurabilityGroup {
		return nil, errors.New("server: SyncRepl requires DurabilityGroup (the group committer is where replication acks are awaited)")
	}
	s := &Server{
		cfg:          cfg,
		db:           cfg.DB,
		dur:          dur,
		ckpt:         ckpt,
		roEcho:       roEcho,
		doneCh:       make(chan struct{}),
		connSem:      make(chan struct{}, cfg.MaxConns),
		slots:        make(chan int, cfg.Workers),
		sessions:     make(map[*session]struct{}),
		commitEpochs: make(map[uint64]uint64),
		prepared:     make(map[string]*preparedTxn),
	}
	s.epoch.Store(cfg.Epoch)
	for i := 0; i < cfg.Workers; i++ {
		s.slots <- i
	}
	// Re-lock in-doubt cross-shard transactions from their durable prepare
	// records before accepting any connection, so no new writer can slip in
	// under keys a prepared transaction still owns.
	s.recoverPrepared()
	s.gc = newGroupCommitter(s)
	go s.gc.run()
	return s, nil
}

// shipLog returns the live log manager to ship from, or nil when the
// engine has none (a replica, or an engine without a WAL).
func (s *Server) shipLog() *wal.Manager {
	if s.ckpt == nil {
		return nil
	}
	return s.ckpt.Log()
}

// Epoch returns the primary epoch this server currently serves in.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch advances the server's primary epoch monotonically (a lower value
// is ignored — epochs only move forward). Called after promotion, with the
// persisted epoch the promoted replica now owns.
func (s *Server) SetEpoch(e uint64) { storeMax(&s.epoch, e) }

// noteCommit records one positively acknowledged write commit in epoch.
func (s *Server) noteCommit(epoch uint64) {
	s.commits.Add(1)
	s.epochMu.Lock()
	s.commitEpochs[epoch]++
	s.epochMu.Unlock()
}

// CommitEpochs snapshots the per-epoch acknowledged write-commit counts.
// The nemesis harness intersects these across servers: two servers both
// acking write commits in one epoch is the split-brain the epoch fence
// exists to prevent.
func (s *Server) CommitEpochs() map[uint64]uint64 {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	out := make(map[uint64]uint64, len(s.commitEpochs))
	for e, n := range s.commitEpochs {
		out[e] = n
	}
	return out
}

// storeMax advances a high-watermark counter monotonically.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown or Close. It returns nil
// after a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.ln != nil {
		s.lnMu.Unlock()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		// Admission before Accept: at MaxConns sessions the server stops
		// accepting entirely and lets the kernel backlog queue dials.
		select {
		case s.connSem <- struct{}{}:
		case <-s.doneCh:
			return nil
		}
		nc, err := ln.Accept()
		if err != nil {
			<-s.connSem
			select {
			case <-s.doneCh:
				return nil
			default:
				return err
			}
		}
		s.startSession(nc)
	}
}

// Addr returns the listener address once Serve has started, else nil.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) draining() bool {
	select {
	case <-s.doneCh:
		return true
	default:
		return false
	}
}

// acquireSlot is non-blocking admission control: queueing here could
// deadlock a session pipeline behind its own open transactions.
func (s *Server) acquireSlot() (int, bool) {
	select {
	case w := <-s.slots:
		return w, true
	default:
		return 0, false
	}
}

func (s *Server) releaseSlot(w int) { s.slots <- w }

// Stats snapshots the server counters.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		Conns:         uint32(s.conns.Load()),
		OpenTxns:      uint32(s.openTxns.Load()),
		Commits:       s.commits.Load(),
		Aborts:        s.aborts.Load(),
		GroupBatches:  s.gc.batches.Load(),
		GroupCommits:  s.gc.commits.Load(),
		DurableOffset: s.dur.DurableOffset(),

		ReplSubscribers:   uint32(s.replSubscribers.Load()),
		ReplBatches:       s.replBatches.Load(),
		ReplShippedOffset: s.replShipped.Load(),
		ReplAckedOffset:   s.replAcked.Load(),
		Checkpoints:       s.checkpoints.Load(),

		PreparedTxns:  s.preparedCount(),
		ShardPrepares: s.shardPrepares.Load(),
		ShardDecides:  s.shardDecides.Load(),
	}
}

func (s *Server) startSession(nc net.Conn) {
	sess := newSession(s, nc)
	s.sessMu.Lock()
	s.sessions[sess] = struct{}{}
	s.sessMu.Unlock()
	s.sessWG.Add(1)
	s.conns.Add(1)
	sess.start()
	if s.draining() {
		// Raced in during drain: answer what arrives, close as soon as idle.
		sess.kickIfIdle()
	}
}

func (s *Server) removeSession(sess *session) {
	s.sessMu.Lock()
	delete(s.sessions, sess)
	s.sessMu.Unlock()
	s.conns.Add(-1)
	<-s.connSem
	s.sessWG.Done()
}

func (s *Server) snapshotSessions() []*session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// Shutdown drains the server: stop accepting, refuse new transactions,
// finish in-flight ones, flush every owed response, then close. Past ctx's
// deadline remaining connections are force-closed and their open
// transactions aborted through the normal abort path. Safe to call once;
// later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() { s.shutErr = s.shutdown(ctx) })
	return s.shutErr
}

func (s *Server) shutdown(ctx context.Context) error {
	close(s.doneCh)
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	// Idle sessions (no open transactions) are parked in a blocking read;
	// poke them so their handlers can answer anything queued and exit.
	for _, sess := range s.snapshotSessions() {
		sess.kickIfIdle()
	}

	done := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		for _, sess := range s.snapshotSessions() {
			sess.forceClose()
		}
		<-done
		err = ctx.Err()
	}
	// Prepared cross-shard transactions outlive their sessions; abort the
	// in-memory side now (their durable prepare records re-lock them at the
	// next start, where the coordinator's retried decide resolves them).
	s.abortPrepared()
	s.gc.close()
	return err
}

// Close force-closes the server immediately: in-flight transactions are
// aborted through the normal abort path and their resources reclaimed.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
