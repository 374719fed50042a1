// Package engine defines the database-agnostic transaction interface that
// both the ERMIA engine (internal/core) and the Silo-OCC baseline
// (internal/silo) implement, plus the shared error taxonomy. The benchmark
// harness and the examples are written against these interfaces so the same
// workload code drives every system in the evaluation.
package engine

import "errors"

// Common transaction errors. Workloads retry on the conflict family and
// treat the rest as logic errors.
var (
	// ErrNotFound reports a read of a key with no visible record.
	//
	//ermia:classify fatal a logic error the application handles; retrying cannot make the key appear
	ErrNotFound = errors.New("engine: key not found")
	// ErrDuplicate reports an insert of an existing key.
	//
	//ermia:classify fatal a logic error the application handles; retrying re-collides
	ErrDuplicate = errors.New("engine: duplicate key")
	// ErrWriteConflict reports a write-write conflict: another transaction
	// updated (or is updating) the record. Under ERMIA's first-updater-wins
	// rule this surfaces at the update itself — the early abort the paper
	// credits for minimizing wasted work.
	ErrWriteConflict = errors.New("engine: write-write conflict")
	// ErrReadValidation reports Silo-OCC commit-time read-set validation
	// failure: part of the read footprint was overwritten.
	ErrReadValidation = errors.New("engine: read validation failed")
	// ErrSerialization reports an SSN exclusion-window violation: committing
	// would risk a dependency cycle.
	ErrSerialization = errors.New("engine: serialization failure")
	// ErrPhantom reports node-set validation failure: an insert changed a
	// scanned index range.
	ErrPhantom = errors.New("engine: phantom detected")
	// ErrAborted reports use of a transaction that already aborted.
	//
	//ermia:classify fatal misuse of a dead transaction handle, not a conflict on live work
	ErrAborted = errors.New("engine: transaction aborted")
	// ErrReadOnlyDegraded reports an update rejected because the engine is
	// in the Degraded health state: the log device failed, so the DB serves
	// reads from the in-memory version chains but refuses new writes until
	// the log is re-attached. It is an availability error, not a conflict:
	// retrying without healing the device cannot succeed, so IsRetryable
	// reports false. Observe DB health and call Reattach instead.
	ErrReadOnlyDegraded = errors.New("engine: database degraded to read-only")
	// ErrReplicaReadOnly reports an update rejected because the engine is a
	// replication replica: it continuously replays the primary's log and
	// serves snapshot reads pinned at its replay watermark, but writes must
	// go to the primary. Like ErrReadOnlyDegraded it is an availability
	// error, not a conflict — retrying against the same replica cannot
	// succeed until it is promoted, so IsRetryable reports false and
	// Classify maps it to OutcomeUnavailable. Clients should redirect
	// writes to the primary (or, after a primary failure, ask for
	// promotion).
	ErrReplicaReadOnly = errors.New("engine: replica is read-only")
	// ErrConnLost reports a network operation whose connection died before a
	// response arrived. For a commit the true outcome is indeterminate — the
	// server may have committed before the connection broke. It is classified
	// retryable because RunWithRetry already requires idempotent transaction
	// bodies; callers that cannot retry blindly must reconcile by reading.
	//
	//ermia:classify local synthesized client-side when the connection dies; no server ever sends it
	ErrConnLost = errors.New("engine: connection lost before response")
	// ErrOverloaded reports a transaction refused by server admission
	// control (no free worker slot). Retryable: backoff clears the burst.
	ErrOverloaded = errors.New("engine: server overloaded")
	// ErrShutdown reports a transaction refused because the server is
	// draining. Like ErrReadOnlyDegraded it is an availability error, not a
	// conflict: this server instance will not accept the work, so the retry
	// loop returns immediately instead of spinning through the drain.
	ErrShutdown = errors.New("engine: server shutting down")
	// ErrDeadlineExceeded reports a request whose caller-supplied deadline
	// expired before the server finished it: the server aborts the
	// transaction and answers with this typed status instead of holding the
	// pipeline. For a commit the true outcome is indeterminate exactly as
	// with ErrConnLost — the deadline may have fired after the commit was
	// applied but before its durability acknowledgment — so it is classified
	// retryable under the same idempotent-body contract RunWithRetry already
	// imposes.
	ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")
	// ErrStaleEpoch reports a request fenced by the primary-epoch check: the
	// server's epoch is lower than an epoch the requester has already
	// observed, which means the server is a deposed primary that has not yet
	// learned of its replacement (a healed partition survivor). It is an
	// availability error, not a conflict — retrying against the same stale
	// server cannot succeed; clients rotate to the current primary instead.
	ErrStaleEpoch = errors.New("engine: stale primary epoch (fenced)")
	// ErrTxnInDoubt reports a cross-shard commit whose outcome could not be
	// learned before the coordinator lost contact with a prepared
	// participant: every shard holds the transaction's writes durably in a
	// prepare record, the decision is (or will be) logged, but at least one
	// participant has not yet applied it. The outcome is indeterminate from
	// the caller's point of view — exactly the ErrConnLost situation — so it
	// is classified retryable under RunWithRetry's idempotent-body contract;
	// retries conflict against the still-held write locks until the
	// coordinator's resolver delivers the decision.
	ErrTxnInDoubt = errors.New("engine: cross-shard transaction in doubt")
	// ErrShardMoved reports a request routed with a stale shard map: the
	// participant's map version differs from the coordinator's, so the key
	// ranges the coordinator assumed may no longer live there. Retryable —
	// the router refreshes its shard map and re-routes, which parallels how
	// ErrConnLost triggers a redial.
	ErrShardMoved = errors.New("engine: shard map version mismatch (moved)")
)

// IsRetryable reports whether err is a concurrency conflict the application
// should retry rather than a logic error.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrWriteConflict) ||
		errors.Is(err, ErrReadValidation) ||
		errors.Is(err, ErrSerialization) ||
		errors.Is(err, ErrPhantom) ||
		errors.Is(err, ErrConnLost) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrTxnInDoubt) ||
		errors.Is(err, ErrShardMoved)
}

// Table identifies one table (index + storage) inside a DB. Concrete
// engines return their own implementations from CreateTable/OpenTable.
type Table interface {
	Name() string
}

// Txn is one transaction. A Txn is single-goroutine; it ends with exactly
// one Commit or Abort call.
//
// Payloads are immutable once written. The keys and values Get and Scan
// return are the stored bytes; the engine never modifies them while anyone
// holds them, before or after the transaction ends, so callers may keep and
// decode them in place (codec's tuple strings alias them) but must not
// modify them. Insert keeps the caller's key and value slices and Update the
// value slice as stored bytes, so the caller must not reuse them afterwards.
type Txn interface {
	// Get returns the visible value for key: the stored payload.
	Get(t Table, key []byte) ([]byte, error)
	// Insert adds a new record. The engine keeps key and value.
	Insert(t Table, key, value []byte) error
	// Update replaces the record's value; the engine keeps value. It fails
	// with ErrNotFound if no visible record exists and ErrWriteConflict on
	// write-write conflicts.
	Update(t Table, key, value []byte) error
	// Delete removes the record (a tombstone update).
	Delete(t Table, key []byte) error
	// Scan visits visible records with keys in [lo, hi) in order (hi nil
	// means unbounded); fn returning false stops the scan. Keys and values
	// passed to fn follow the same rule as Get's result.
	Scan(t Table, lo, hi []byte, fn func(key, value []byte) bool) error
	// Commit runs the engine's commit protocol. On a conflict error the
	// transaction has already been aborted and cleaned up.
	Commit() error
	// Abort rolls the transaction back. Safe to call after a failed Commit.
	Abort()
}

// DB is a transactional engine instance.
type DB interface {
	// CreateTable makes (or returns) the named table.
	CreateTable(name string) Table
	// OpenTable returns the named table, or nil if absent.
	OpenTable(name string) Table
	// Begin starts a read-write transaction on the given worker slot.
	// Worker slots partition engine-internal resources (reader bitmaps,
	// per-worker stats); each concurrent goroutine must use its own.
	Begin(worker int) Txn
	// BeginReadOnly starts a transaction that promises not to write.
	// Engines may serve it from a snapshot (Silo) or treat it as a normal
	// SI transaction (ERMIA).
	BeginReadOnly(worker int) Txn
	// Close shuts the engine down, stopping background work.
	Close() error
}

// ReadOnlyCommitter is an optional capability a server asserts once on its
// engine. ReadOnlyCommitCannotFail reports that Commit of a transaction
// begun with BeginReadOnly never fails, so its outcome is fixed by its last
// read and a remote client need not wait for the server's answer. The ERMIA
// core under SI qualifies; under SSN a read-only transaction can close a
// cycle, and the Silo baseline validates its reads at commit.
type ReadOnlyCommitter interface {
	ReadOnlyCommitCannotFail() bool
}
