package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ermia/internal/xrand"
)

// Outcome is the unified classification of a transaction execution. ERMIA
// SSN/FUW aborts, ERMIA-RV and Silo validation failures, phantom detection —
// all of them are OutcomeConflict: routine, retryable events, exactly as the
// SSI and SSN papers frame them. Everything else is either the application's
// problem (OutcomeFatal) or an availability event (OutcomeUnavailable).
//
//ermia:exhaustive
type Outcome int

const (
	// OutcomeCommitted means the transaction committed.
	OutcomeCommitted Outcome = iota
	// OutcomeConflict means a concurrency-control abort: retry.
	OutcomeConflict
	// OutcomeUnavailable means the engine cannot accept the transaction in
	// its current health state (Degraded/Failed); retrying without healing
	// the engine cannot succeed.
	OutcomeUnavailable
	// OutcomeFatal means a logic or storage error the caller must handle.
	OutcomeFatal
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeConflict:
		return "conflict"
	case OutcomeUnavailable:
		return "unavailable"
	default:
		return "fatal"
	}
}

// Classify maps a transaction error to the shared outcome taxonomy. The
// benchmark harness and RunWithRetry both route through it, so a new abort
// type added to one engine is classified identically everywhere.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeCommitted
	case IsRetryable(err):
		return OutcomeConflict
	case errors.Is(err, ErrReadOnlyDegraded), errors.Is(err, ErrReplicaReadOnly),
		errors.Is(err, ErrShutdown), errors.Is(err, ErrStaleEpoch):
		return OutcomeUnavailable
	default:
		return OutcomeFatal
	}
}

// ErrRetriesExhausted wraps the final conflict when a RetryPolicy's attempt
// budget runs out. Use errors.Is to detect it; the underlying conflict stays
// reachable through Unwrap.
//
//ermia:classify fatal local wraps the last conflict client-side after the attempt budget; Classify sees the wrapped conflict through Unwrap
var ErrRetriesExhausted = errors.New("engine: retries exhausted")

// RetryPolicy bounds the retry loop of RunWithRetry: exponential backoff
// between attempts, multiplicative jitter to decorrelate convoying workers,
// and an optional cap on attempts. Context deadlines bound wall-clock time
// independently of the attempt count.
type RetryPolicy struct {
	// MaxAttempts caps total executions of fn (first try included). Zero
	// means unbounded: retry until commit, non-conflict error, or context
	// cancellation.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay. Zero disables sleeping (pure
	// immediate retry, the historical WithRetry behaviour).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero with a non-zero BaseDelay
	// defaults to 100*BaseDelay.
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized away, in [0,1]: the
	// actual sleep is uniform in [delay*(1-Jitter), delay]. Zero means no
	// jitter.
	Jitter float64
	// Seed makes the jitter stream deterministic for reproducible tests;
	// zero seeds from the clock.
	Seed uint64
}

// DefaultRetryPolicy is tuned for in-memory engines: conflicts resolve in
// microseconds, so backoff starts tiny and caps low, with enough jitter to
// break worker lockstep.
var DefaultRetryPolicy = RetryPolicy{
	BaseDelay: 50 * time.Microsecond,
	MaxDelay:  5 * time.Millisecond,
	Jitter:    0.5,
}

// Backoff returns the sleep before retry attempt n (1-based, i.e. the sleep
// after the n-th failure): BaseDelay doubled per attempt, capped at MaxDelay,
// with the policy's multiplicative jitter drawn from rng (nil skips jitter).
// It is the single backoff computation shared by Run and by reconnect loops
// (e.g. a replica redialing its primary) that want the same shape without
// the transaction harness.
func (p RetryPolicy) Backoff(attempt int, rng *xrand.Rand) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	maxDelay := p.MaxDelay
	if maxDelay == 0 {
		maxDelay = 100 * p.BaseDelay
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	if p.Jitter > 0 && rng != nil {
		lo := float64(d) * (1 - p.Jitter)
		d = time.Duration(lo + rng.Float64()*(float64(d)-lo))
	}
	return d
}

// RunWithRetry executes fn in transactions on worker's slot under the
// default policy until one commits, fn fails with a non-conflict error, or
// ctx is done. It is the single retry loop the public API, the benchmark
// harness, and the examples share. fn must be idempotent.
func RunWithRetry(ctx context.Context, db DB, worker int, fn func(Txn) error) error {
	return DefaultRetryPolicy.Run(ctx, db, worker, fn)
}

// Run executes fn under the policy. Conflicts (per Classify) are retried
// with backoff; unavailable and fatal outcomes return immediately. When the
// attempt budget runs out the last conflict is returned wrapped in
// ErrRetriesExhausted; when ctx expires mid-loop the context error is
// returned wrapping the last conflict, so callers can distinguish "gave up"
// from "never conflicted".
func (p RetryPolicy) Run(ctx context.Context, db DB, worker int, fn func(Txn) error) error {
	seed := p.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	rng := xrand.New2(seed, uint64(worker))
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: retry loop cancelled: %w", err)
		}
		err := runOnce(db, worker, fn)
		switch Classify(err) {
		case OutcomeCommitted:
			return nil
		case OutcomeConflict:
			// fall through to backoff
		default:
			return err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempt, err)
		}
		if sleep := p.Backoff(attempt, rng); sleep > 0 {
			t := time.NewTimer(sleep)
			select {
			case <-ctx.Done():
				t.Stop()
				return fmt.Errorf("engine: retry loop cancelled: %w (last conflict: %v)", ctx.Err(), err)
			case <-t.C:
			}
		}
	}
}

// runOnce executes fn in one transaction, guaranteeing exactly one
// Commit/Abort even when fn errors.
func runOnce(db DB, worker int, fn func(Txn) error) error {
	txn := db.Begin(worker)
	if err := fn(txn); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}
