package engine

import "errors"

// Query-subsystem errors. Analytical plans run inside ordinary read-only
// snapshot transactions (internal/query), so all transaction errors above
// apply to them too; these three are the outcomes specific to plan
// execution. None of them is a concurrency conflict — retrying the same
// plan unchanged reproduces the same failure — so all three classify as
// OutcomeFatal and IsRetryable reports false. Plans execute where their
// transaction runs, so none of the three crosses the wire.
var (
	// ErrBadQueryPlan reports a query plan the executor refuses:
	// out-of-range column references, an unknown table, or a runtime type
	// mismatch (e.g. arithmetic on a string column). The plan itself is
	// wrong; the application must fix it.
	//
	//ermia:classify fatal local raised by the executor in the caller's process; a logic error in the plan, so re-running the identical plan fails identically
	ErrBadQueryPlan = errors.New("engine: bad query plan")
	// ErrQueryCancelled reports a query stopped by its Options.Cancel hook
	// before the result stream finished. It is informational to the
	// canceller and fatal to anyone else holding the iterator.
	//
	//ermia:classify fatal local raised by the caller's own Cancel hook; the issuer asked for termination, so retrying is a new query, not a recovery
	ErrQueryCancelled = errors.New("engine: query cancelled")
	// ErrQueryOverflow reports a query whose result (or an internal
	// materialization: hash-join build side, aggregate table, sort buffer)
	// exceeded the row budget. The bound protects the process from
	// unbounded memory growth; the plan must be narrowed, not retried.
	//
	//ermia:classify fatal local raised by the executor in the caller's process against the caller's MaxRows; the same plan overflows again
	ErrQueryOverflow = errors.New("engine: query result overflow")
)
