// Package ermia is a from-scratch Go reproduction of ERMIA (Kim, Wang,
// Johnson, Pandis — SIGMOD 2016), a memory-optimized database engine for
// heterogeneous workloads. It exposes the ERMIA engine (snapshot isolation,
// with serializability via the Serial Safety Net when requested), the
// Silo-style lightweight-OCC baseline the paper compares against, and a
// common transaction interface that lets the same application code run on
// either.
//
// Quick start:
//
//	db, err := ermia.Open(ermia.Options{Serializable: true})
//	defer db.Close()
//	accounts := db.CreateTable("accounts")
//	err = ermia.WithRetry(db, 0, func(txn ermia.Txn) error {
//	    return txn.Insert(accounts, []byte("alice"), []byte("100"))
//	})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper's
// evaluation reproduced on this implementation.
package ermia

import (
	"context"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/repl"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/silo"
	"ermia/internal/wal"
)

// DB is the ERMIA engine (internal/core.DB re-exported): snapshot-isolation
// MVCC over latch-free indirection arrays, a single-fetch-and-add
// centralized log, epoch-based resource management, and optional SSN
// serializability. It implements the engine-agnostic interface used by the
// benchmarks, plus Checkpoint, WaitDurable, RunGC, and Stats.
type DB = core.DB

// SiloDB is the Silo-OCC baseline engine (internal/silo.DB re-exported).
type SiloDB = silo.DB

// Txn is one transaction: Get/Insert/Update/Delete/Scan, ended by exactly
// one Commit or Abort.
type Txn = engine.Txn

// Table identifies a table within a DB.
type Table = engine.Table

// Engine is the interface both DB and SiloDB satisfy; write applications
// against it to stay engine-agnostic.
type Engine = engine.DB

// Storage abstracts the log medium (heap or directory).
type Storage = wal.Storage

// File is one random-access file within a Storage; needed to implement a
// custom Storage (e.g. a fault-injecting wrapper) outside this module.
type File = wal.File

// NewMemStorage returns a heap-backed Storage, useful for tests and for
// crash-recovery experiments (it can snapshot its durable state).
func NewMemStorage() *wal.MemStorage { return wal.NewMemStorage() }

// CoreTable is the ERMIA engine's concrete table type, exposing Len and the
// secondary-index machinery.
type CoreTable = core.Table

// SecondaryIndex is an ERMIA-native secondary access path: secondary keys
// map directly to OIDs, so record updates touch no index and secondary
// reads skip the primary probe (paper §2).
type SecondaryIndex = core.SecondaryIndex

// SecondaryEntry names one secondary key for Txn.InsertWithSecondary.
type SecondaryEntry = core.SecondaryEntry

// Re-exported error taxonomy. Conflicts (write-write, read validation,
// serialization, phantom) are retryable; use IsRetryable or WithRetry.
// ErrReadOnlyDegraded is an availability error — see Health and Reattach.
var (
	ErrNotFound         = engine.ErrNotFound
	ErrDuplicate        = engine.ErrDuplicate
	ErrWriteConflict    = engine.ErrWriteConflict
	ErrReadValidation   = engine.ErrReadValidation
	ErrSerialization    = engine.ErrSerialization
	ErrPhantom          = engine.ErrPhantom
	ErrReadOnlyDegraded = engine.ErrReadOnlyDegraded
	ErrReplicaReadOnly  = engine.ErrReplicaReadOnly
	ErrRetriesExhausted = engine.ErrRetriesExhausted
)

// IsRetryable reports whether err is a concurrency conflict worth retrying.
func IsRetryable(err error) bool { return engine.IsRetryable(err) }

// Outcome classifies a transaction execution: committed, conflict (retry),
// unavailable (heal the engine first), or fatal (application error).
type Outcome = engine.Outcome

// Outcome values.
const (
	OutcomeCommitted   = engine.OutcomeCommitted
	OutcomeConflict    = engine.OutcomeConflict
	OutcomeUnavailable = engine.OutcomeUnavailable
	OutcomeFatal       = engine.OutcomeFatal
)

// Classify maps a transaction error to the outcome taxonomy.
func Classify(err error) Outcome { return engine.Classify(err) }

// HealthState is the fault-containment state machine both engines share:
// Healthy → Degraded (log device failed; reads keep committing, writes fail
// fast with ErrReadOnlyDegraded) → Healthy again after Reattach, or Failed
// (terminal). DB and SiloDB both expose Health and Reattach; a Server
// serves them over the wire with no wiring of its own.
type HealthState = engine.HealthState

// Health states.
const (
	Healthy  = engine.Healthy
	Degraded = engine.Degraded
	Failed   = engine.Failed
	Replica  = engine.Replica
)

// HealthStatus is a health snapshot: the state plus the causing fault.
type HealthStatus = engine.HealthStatus

// ReattachReport is what a successful Reattach did with the committed work
// the dead device had not yet made durable, on either engine.
type ReattachReport = engine.ReattachReport

// RetryPolicy bounds a retry loop: attempt cap, exponential backoff with
// jitter, and (via context) wall-clock deadlines.
type RetryPolicy = engine.RetryPolicy

// RunWithRetry executes fn in transactions under the default retry policy
// until one commits, fn fails with a non-conflict error, or ctx is done.
// Conflicts back off exponentially with jitter; ErrReadOnlyDegraded returns
// immediately (retrying cannot succeed until Reattach heals the engine).
func RunWithRetry(ctx context.Context, db Engine, worker int, fn func(Txn) error) error {
	return engine.RunWithRetry(ctx, db, worker, fn)
}

// Options configures an ERMIA engine.
type Options struct {
	// Serializable overlays the SSN certifier on snapshot isolation
	// (ERMIA-SSN). Off, transactions run under plain SI (ERMIA-SI): readers
	// never block or abort writers and vice versa, but write skew is
	// possible.
	Serializable bool
	// Dir, when non-empty, stores the log and checkpoints in that
	// directory; otherwise everything stays on the heap (the paper logs to
	// tmpfs).
	Dir string
	// Storage overrides the log medium directly (takes precedence over
	// Dir). Useful for crash-recovery testing with wal.MemStorage.
	Storage Storage
	// SegmentSize and BufferSize tune the log manager (defaults 64MiB/4MiB).
	SegmentSize uint64
	BufferSize  uint64
	// GCInterval runs the background version garbage collector; zero
	// disables it (call DB.RunGC manually).
	GCInterval time.Duration
	// LogPerOperation emulates per-operation WAL round trips instead of
	// one log reservation per transaction (the Figure 10 ablation).
	LogPerOperation bool
	// Profile enables the per-worker cycle breakdown (Figure 11).
	Profile bool
}

func (o Options) coreConfig() (core.Config, error) {
	st := o.Storage
	if st == nil && o.Dir != "" {
		ds, err := wal.NewDirStorage(o.Dir)
		if err != nil {
			return core.Config{}, err
		}
		st = ds
	}
	return core.Config{
		WAL: wal.Config{
			SegmentSize: o.SegmentSize,
			BufferSize:  o.BufferSize,
			Storage:     st,
		},
		Serializable:    o.Serializable,
		LogPerOperation: o.LogPerOperation,
		GCInterval:      o.GCInterval,
		Profile:         o.Profile,
	}, nil
}

// Open creates a fresh ERMIA engine.
func Open(opts Options) (*DB, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	return core.Open(cfg)
}

// Recover rebuilds an ERMIA engine from an existing log (and checkpoint, if
// one exists) in opts.Dir or opts.Storage, then resumes it. The procedure
// is identical after a clean shutdown and after a crash.
func Recover(opts Options) (*DB, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	return core.Recover(cfg)
}

// SiloOptions configures the baseline engine.
type SiloOptions struct {
	// Snapshots enables Silo's copy-on-write read-only snapshots, used by
	// BeginReadOnly transactions.
	Snapshots bool
	// EpochInterval is the group-commit / snapshot epoch period.
	EpochInterval time.Duration
	// Storage holds the wal segments of Silo's log; required for
	// RecoverSilo.
	Storage Storage
}

func (o SiloOptions) config() silo.Config {
	return silo.Config{
		Snapshots:     o.Snapshots,
		EpochInterval: o.EpochInterval,
		Storage:       o.Storage,
	}
}

// OpenSilo creates a Silo-OCC baseline engine.
func OpenSilo(opts SiloOptions) (*SiloDB, error) {
	return silo.Open(opts.config())
}

// RecoverSilo rebuilds a Silo engine from its wal-framed log (SiloR-style
// replay, last writer per key wins by commit TID).
func RecoverSilo(opts SiloOptions) (*SiloDB, error) {
	return silo.Recover(opts.config())
}

// WithRetry runs fn in a transaction on worker's slot, retrying on
// concurrency conflicts until it commits or fn fails with a non-retryable
// error. fn must be idempotent. It is RunWithRetry without a deadline; use
// RunWithRetry directly to bound the loop with a context or a custom
// RetryPolicy.
func WithRetry(db Engine, worker int, fn func(Txn) error) error {
	return engine.RunWithRetry(context.Background(), db, worker, fn)
}

// ---- Network service layer ----
//
// The same Engine interface runs over TCP: put either engine behind a Server
// and application code — including WithRetry — works unchanged against a
// Client. See DESIGN.md ("Network service layer") for the wire protocol,
// session lifetime rules, and the cross-connection group-commit path.
//
//	srv, _ := ermia.NewServer(ermia.ServerConfig{DB: db})
//	go srv.ListenAndServe(":7244")
//	...
//	c, _ := ermia.DialServer(ermia.ClientOptions{Addr: "db-host:7244"})
//	err := ermia.WithRetry(c, 0, func(txn ermia.Txn) error { ... })

// Server serves an Engine over TCP with request pipelining, per-session
// transaction registries, admission control, and cross-connection group
// commit (internal/server re-exported).
type Server = server.Server

// ServerConfig configures a Server: the engine, connection and worker-slot
// limits, the commit durability mode, and the admin promote hook.
type ServerConfig = server.Config

// ServerStats is the server's counter snapshot (also served remotely via
// Client.Stats).
type ServerStats = server.StatsSnapshot

// Durability selects what a positive Commit acknowledgment promises.
type Durability = server.Durability

// Durability modes.
const (
	// DurabilityGroup acknowledges commits from the cross-connection group
	// committer: one log-durability wakeup covers every commit that arrived
	// during the previous device sync. The default.
	DurabilityGroup = server.DurabilityGroup
	// DurabilityNone acknowledges once the commit is logically applied.
	DurabilityNone = server.DurabilityNone
)

// NewServer builds a Server around cfg.DB; start it with Serve or
// ListenAndServe, stop it with Shutdown (graceful drain) or Close.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Client is a remote Engine: a connection-pooled, pipelined client for an
// ermia-server (internal/client re-exported). Wire statuses map back onto
// the error taxonomy above, so IsRetryable, Classify, and WithRetry behave
// identically against local and remote engines.
type Client = client.Client

// ClientOptions configures a Client (address, pool size, dial timeout).
type ClientOptions = client.Options

// DialServer connects to an ermia-server.
func DialServer(opts ClientOptions) (*Client, error) { return client.Dial(opts) }

// Network-layer availability errors. ErrConnLost and ErrOverloaded are
// retryable (a lost connection leaves the commit outcome indeterminate;
// retrying an idempotent transaction is the correct response). ErrShutdown
// classifies as OutcomeUnavailable: the server is draining.
var (
	ErrConnLost   = engine.ErrConnLost
	ErrOverloaded = engine.ErrOverloaded
	ErrShutdown   = engine.ErrShutdown
)

// Deadline and fencing errors. ErrDeadlineExceeded is retryable — the
// request's budget ran out before the server finished (for a commit the
// outcome is indeterminate, exactly like ErrConnLost). ErrStaleEpoch
// classifies as OutcomeUnavailable: this server was deposed by a failover
// and the client should be (and, with FallbackAddrs, is) routed elsewhere.
var (
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	ErrStaleEpoch       = engine.ErrStaleEpoch
)

// LogReplica is a running log-shipping replica (internal/repl.Replica
// re-exported): a goroutine streaming the primary's committed log over the
// wire protocol into a byte-identical local mirror, replaying it into a
// read-only engine. LogReplica.DB serves snapshot reads pinned at the replay
// watermark; writes fail with ErrReplicaReadOnly until LogReplica.Promote
// turns the replica into a full primary over its mirrored log.
type LogReplica = repl.Replica

// ReplicaStats snapshots a replica's streaming progress: watermark, lag
// behind the primary's durable horizon, and apply counters.
type ReplicaStats = repl.Stats

// Replication availability errors. ErrAlreadyPromoted reports a second
// Promote. ErrReplStreamFatal means the replica cannot resume from its
// watermark (the primary truncated or corrupted that log suffix) and must be
// re-seeded from a fresh copy; transient transport failures never surface —
// the replica reconnects and resubscribes on its own.
var (
	ErrAlreadyPromoted = repl.ErrPromoted
	ErrReplStreamFatal = repl.ErrStreamFatal
)

// StartReplica opens (or re-opens) a replica whose log mirror lives in
// opts.Dir/opts.Storage and streams from the primary ermia-server at
// primaryAddr. Whatever the mirror already holds is recovered before
// streaming resumes from the watermark, so a restarted replica re-fetches
// only what it missed.
func StartReplica(primaryAddr string, opts Options) (*LogReplica, error) {
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	return repl.Start(repl.Config{PrimaryAddr: primaryAddr, Core: cfg})
}

// ReplicaConfig configures replication beyond the primary address: dial
// hooks, reconnect backoff, and the heartbeat-silence detector that feeds a
// ReplicaSupervisor (internal/repl.Config re-exported).
type ReplicaConfig = repl.Config

// ReplicaSupervisor watches a replica's primary-liveness signal and
// promotes it automatically once the primary has been silent for longer
// than its SilenceTimeout. Promotion claims the next primary epoch, which
// fences the old primary off clients and replicas alike; see the type's
// documentation in internal/repl for the safety argument.
type ReplicaSupervisor = repl.Supervisor

// StartReplicaWith is StartReplica with full control over the replication
// config (heartbeat timeout, reconnect policy, dial hook). The engine-side
// mirror configuration still comes from opts; cfg.Core is overwritten.
func StartReplicaWith(cfg ReplicaConfig, opts Options) (*LogReplica, error) {
	core, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Core = core
	return repl.Start(cfg)
}

// ---- Relational query layer ----
//
// internal/query re-exported: a volcano-style operator tree (scan, filter,
// project, hash join, aggregate, order-by, limit) evaluated over a typed row
// codec on top of Txn.Scan. Every plan executes inside one read-only
// snapshot, so long analytical queries never block or abort writers — SI
// heterogeneous-workload behaviour at the query layer. Plans are a compact
// typed AST (not SQL) that runs where its transaction runs: embedded,
// against a LogReplica's engine, or in a remote Client, whose transactions
// feed the operators ordinary scan pages (ExecQuery or QueryInTxn over the
// Client). See DESIGN.md ("Query processing").
//
//	sch := ermia.QuerySchema{
//	    Key: []ermia.QueryColumn{{Name: "id", Enc: ermia.EncKeyU32}},
//	    Val: []ermia.QueryColumn{{Name: "amount", Enc: ermia.EncValI}},
//	}
//	plan := ermia.NewQueryPlan(ermia.QueryAggregate(
//	    ermia.QueryFilter(ermia.QueryScan("orders", sch),
//	        ermia.QGt(ermia.QCol(1), ermia.QInt(100))),
//	    nil, ermia.QCount(), ermia.QSum(ermia.QCol(1))))
//	rows, err := ermia.RunQuery(db, 0, plan)

// QueryPlan is an executable analytical plan (internal/query.Plan).
type QueryPlan = query.Plan

// QueryNode is one operator in a plan tree.
type QueryNode = query.Node

// QueryExpr is a scalar expression over a row.
type QueryExpr = query.Expr

// QueryValue is one typed scalar (int, float, or string).
type QueryValue = query.Value

// QueryRow is one result row.
type QueryRow = query.Row

// QueryRows is a pull iterator over result rows: Next returns (nil, nil) at
// end of stream; always Close.
type QueryRows = query.Rows

// QuerySchema describes how a table's key/value bytes decode into columns.
type QuerySchema = query.Schema

// QueryColumn is one column of a QuerySchema.
type QueryColumn = query.Column

// QueryOptions bounds a query execution (row budget, cancellation hook).
type QueryOptions = query.Options

// QueryAggSpec is one aggregate computation (COUNT/SUM/MIN/MAX/AVG).
type QueryAggSpec = query.AggSpec

// QuerySortKey is one order-by key.
type QuerySortKey = query.SortKey

// Column encodings for QuerySchema: EncKey* decode order-preserving key
// fields, EncVal* decode varint tuple fields, and the Raw forms capture the
// undecoded remainder as an opaque string column.
const (
	EncKeyU8  = query.EncKeyU8
	EncKeyU16 = query.EncKeyU16
	EncKeyU32 = query.EncKeyU32
	EncKeyU64 = query.EncKeyU64
	EncKeyI64 = query.EncKeyI64
	EncKeyStr = query.EncKeyStr
	EncKeyRaw = query.EncKeyRaw
	EncValU   = query.EncValU
	EncValI   = query.EncValI
	EncValF   = query.EncValF
	EncValS   = query.EncValS
	EncValRaw = query.EncValRaw
)

// Plan-node builders.
var (
	QueryScan      = query.Scan
	QueryScanRange = query.ScanRange
	QueryFilter    = query.Filter
	QueryProject   = query.Project
	QueryHashJoin  = query.HashJoin
	QueryAggregate = query.Aggregate
	QueryOrderBy   = query.OrderBy
	QueryLimit     = query.Limit
	NewQueryPlan   = query.NewPlan
)

// Expression builders (Q-prefixed to keep the facade namespace flat).
var (
	QCol     = query.Col
	QInt     = query.ConstInt
	QFloat   = query.ConstFloat
	QStr     = query.ConstStr
	QEq      = query.Eq
	QNe      = query.Ne
	QLt      = query.Lt
	QLe      = query.Le
	QGt      = query.Gt
	QGe      = query.Ge
	QAnd     = query.And
	QOr      = query.Or
	QNot     = query.Not
	QAdd     = query.Add
	QSub     = query.Sub
	QMul     = query.Mul
	QDiv     = query.Div
	QToInt   = query.ToInt
	QToFloat = query.ToFloat
)

// Aggregate builders.
var (
	QCount = query.Count
	QSum   = query.Sum
	QMin   = query.Min
	QMax   = query.Max
	QAvg   = query.Avg
)

// Query-plan errors. ErrBadQueryPlan is fatal (fix the plan);
// ErrQueryCancelled reports a cancelled execution; ErrQueryOverflow a result
// or materialization that exceeded the row budget.
var (
	ErrBadQueryPlan   = engine.ErrBadQueryPlan
	ErrQueryCancelled = engine.ErrQueryCancelled
	ErrQueryOverflow  = engine.ErrQueryOverflow
)

// RunQuery executes plan inside one fresh read-only snapshot on any local
// Engine (primary or replica) and returns the full result. For streaming,
// bounded, or cancellable execution use query.Run via ExecQuery's options.
func RunQuery(db Engine, worker int, plan *QueryPlan) ([]QueryRow, error) {
	return query.RunReadOnly(db, worker, plan, query.Options{})
}

// ExecQuery is RunQuery with explicit execution options (row budget,
// cancellation hook).
func ExecQuery(db Engine, worker int, plan *QueryPlan, opts QueryOptions) ([]QueryRow, error) {
	return query.RunReadOnly(db, worker, plan, opts)
}

// QueryInTxn runs plan inside an already-open transaction on db and
// returns the full result. The plan sees exactly the versions txn.Scan
// would return, so a read-write transaction can mix relational scans with
// imperative updates and commit them atomically.
func QueryInTxn(db Engine, txn Txn, plan *QueryPlan) ([]QueryRow, error) {
	return query.Collect(txn, db.OpenTable, plan, query.Options{})
}

// ---- Horizontal sharding & distributed commit ----
//
// internal/shard re-exported: a versioned shard map partitions tables
// across independent ermia-server processes (hash of a configurable key
// prefix, or full replication for read-mostly catalogs), and a Router
// implements the same Engine interface over the whole fleet. Transactions
// that touch one shard commit exactly like an unsharded client (the fast
// path); transactions that wrote on several shards commit with two-phase
// commit — durable prepare records on every participant, a durable
// coordinator decision log, and presumed-abort recovery for coordinator
// crashes. See DESIGN.md ("Sharding & distributed commit").
//
//	m, _ := ermia.LoadShardMap("shards.json")
//	r, _ := ermia.NewShardRouter(m, ermia.ShardRouterOptions{DecisionLog: "decisions"}) // a wal directory
//	defer r.Close()
//	err := ermia.WithRetry(r, 0, func(txn ermia.Txn) error { ... })

// ShardMap is the versioned placement policy: the shard servers (with
// optional replicas) and the per-table partitioning rules.
type ShardMap = shard.Map

// ShardInfo is one shard's primary address plus replica fallbacks.
type ShardInfo = shard.ShardInfo

// ShardTableRule is one table's placement rule: hash of a key prefix
// (PrefixLen) or full replication (Replicated).
type ShardTableRule = shard.TableRule

// ShardRouter is the sharded Engine: single-shard fast path, merge scans,
// and two-phase commit across shards.
type ShardRouter = shard.Router

// ShardRouterOptions configures a ShardRouter (pool sizes, decision-log
// directory, dial hook, shard-identity verification).
type ShardRouterOptions = shard.Options

// NewShardRouter dials every shard in m and returns a router over them.
func NewShardRouter(m *ShardMap, opts ShardRouterOptions) (*ShardRouter, error) {
	return shard.NewRouter(m, opts)
}

// LoadShardMap reads and validates a shard map from a JSON file.
func LoadShardMap(path string) (*ShardMap, error) { return shard.LoadMapFile(path) }

// ParseShardMap parses and validates a shard map from JSON bytes.
func ParseShardMap(data []byte) (*ShardMap, error) { return shard.ParseMapJSON(data) }

// PoolStats is one shard client pool's transport counters (requests,
// retries, connection losses, failover rotations); see Client.Stats and
// ShardRouter.PoolStats.
type PoolStats = client.PoolStats

// Distributed-commit errors. ErrTxnInDoubt is retryable under the
// idempotent-body contract: the outcome is indeterminate until the
// coordinator's resolver delivers the logged decision (retries conflict
// against the prepared writes until then). ErrShardMoved reports a stale
// shard map and is retryable after a map refresh.
var (
	ErrTxnInDoubt = engine.ErrTxnInDoubt
	ErrShardMoved = engine.ErrShardMoved
)
