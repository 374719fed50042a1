package engine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"ermia/internal/wal"
)

// HealthState is the runtime fault-containment state machine both engines
// share. ERMIA's redo-only log contains only committed state (§3.7), which
// means a failed log device should cost write availability, not read
// availability: the in-memory version chains are intact, so SI reads remain
// serviceable while updates — which must reach the log to commit — are
// refused.
//
// Transitions:
//
//	Healthy  --log device error-->  Degraded  --Reattach ok-->  Healthy
//	Degraded --core log repair fails--> Failed (a failed Silo rewrite stays
//	           Degraded, to be retried)
//	Healthy, Degraded --log closed under us--> Failed
//	Replica  --Promote--> Healthy (a replica is born Replica, never enters it)
//	any      --Close--> Failed (terminal)
//
// Degraded guarantees: every commit acknowledged durable before the fault
// remains durable; read-only transactions keep committing against the
// in-memory state; update transactions fail fast with ErrReadOnlyDegraded.
// Replica makes the same read-side promise — snapshot reads pinned at the
// replay watermark keep committing — while writes fail fast with
// ErrReplicaReadOnly until promotion. Failed is terminal: the instance must
// be replaced via recovery.
type HealthState int32

const (
	// Healthy means the engine accepts reads and writes normally.
	Healthy HealthState = iota
	// Degraded means the log device failed: the engine is read-only.
	Degraded
	// Failed means the engine can no longer serve transactions.
	Failed
	// Replica means the engine is a replication replica: it replays the
	// primary's log and serves read-only snapshot transactions; promotion
	// moves it to Healthy.
	Replica
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case Replica:
		return "replica"
	default:
		return fmt.Sprintf("health(%d)", int32(s))
	}
}

// HealthStatus is a snapshot of an engine's health: the state plus the
// fault that caused a non-Healthy state (nil when Healthy).
type HealthStatus struct {
	State HealthState
	// Cause is the first error that moved the engine out of Healthy.
	Cause error
}

func (h HealthStatus) String() string {
	if h.Cause == nil {
		return h.State.String()
	}
	return fmt.Sprintf("%s (%v)", h.State, h.Cause)
}

// Health is the state machine itself, one per engine: the state and the
// first cause, each an atomic word, so the write path checks it with one load.
// Engines hold it as a named field, never embedded, so its mutators stay off
// the public DB surface.
type Health struct {
	state atomic.Int32 // HealthState
	cause atomic.Pointer[error]
}

// State returns the current state.
func (h *Health) State() HealthState { return HealthState(h.state.Load()) }

// Status returns the state and its cause.
func (h *Health) Status() HealthStatus {
	s := HealthStatus{State: h.State()}
	if p := h.cause.Load(); p != nil {
		s.Cause = *p
	}
	return s
}

// Note records a log-device error and returns it unchanged. nil and
// wal.ErrTooLarge (the caller's problem) move nothing; a closed log means
// shutdown, which is Failed; any other error takes Healthy to Degraded, and
// the first such error stays the cause.
func (h *Health) Note(err error) error {
	switch {
	case err == nil, errors.Is(err, wal.ErrTooLarge):
		return err
	case errors.Is(err, wal.ErrClosed):
		h.state.CompareAndSwap(int32(Healthy), int32(Failed))
		h.state.CompareAndSwap(int32(Degraded), int32(Failed))
		return err
	}
	e := err
	h.cause.CompareAndSwap(nil, &e)
	h.state.CompareAndSwap(int32(Healthy), int32(Degraded))
	return err
}

// Unavailable notes a log failure and converts it into the error an update
// transaction surfaces: ErrReadOnlyDegraded once the engine is Degraded, so
// the caller observes health and reattaches instead of retrying.
func (h *Health) Unavailable(err error) error {
	h.Note(err)
	if h.State() == Degraded {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnlyDegraded, err)
	}
	return err
}

// Writable refuses mutating operations unless the engine is Healthy. Reads
// never ask: they stay serviceable in every state that leaves the process
// alive.
func (h *Health) Writable() error {
	switch h.State() {
	case Healthy:
		return nil
	case Degraded:
		return ErrReadOnlyDegraded
	case Replica:
		return ErrReplicaReadOnly
	default:
		return wal.ErrClosed
	}
}

// CanReattach is the precondition of every Reattach: only a Degraded engine
// has a log to heal. A replica has no log of its own; Promote is its only
// way out of Replica.
func (h *Health) CanReattach() error {
	switch h.State() {
	case Failed:
		return fmt.Errorf("engine: reattach failed instance: %w", wal.ErrClosed)
	case Healthy, Replica:
		return wal.ErrNotDegraded
	}
	return nil
}

// Heal returns the engine to Healthy and forgets the cause.
func (h *Health) Heal() {
	h.cause.Store(nil)
	h.state.Store(int32(Healthy))
}

// Fail moves the engine to the terminal Failed state.
func (h *Health) Fail() { h.state.Store(int32(Failed)) }

// SetReplica marks a freshly opened replica engine.
func (h *Health) SetReplica() { h.state.Store(int32(Replica)) }

// ReattachReport summarizes a successful Reattach on either engine.
type ReattachReport struct {
	// Replayed is how many bytes of committed but not yet durable log data
	// were rewritten to the healed device.
	Replayed uint64
	// HolesFilled counts abandoned log reservations closed with skip
	// records (always zero on Silo, whose value log has none).
	HolesFilled int
	// Lost is how many bytes of committed but never acknowledged-durable log
	// data could not be rewritten (the log buffer had wrapped past them).
	Lost uint64
	// NewDevice reports whether a replacement Storage was attached.
	NewDevice bool
}

func (r ReattachReport) String() string {
	s := fmt.Sprintf("reattached: replayed=%dB holes=%d lost=%dB", r.Replayed, r.HolesFilled, r.Lost)
	if r.NewDevice {
		s += " (new device)"
	}
	return s
}

// Durable is the durability capability a server needs from its engine: the
// group committer's device wait, the durable horizon, health, and the admin
// Reattach. Both the ERMIA core and the Silo baseline implement it.
type Durable interface {
	// WaitDurable blocks until every commit so far is durable; a device
	// error surfaces here and degrades the engine.
	WaitDurable() error
	// DurableOffset is the durable horizon in log bytes.
	DurableOffset() uint64
	// Health snapshots the fault-containment state.
	Health() HealthStatus
	// Reattach heals a Degraded engine on its current device (st nil) or on
	// a replacement that holds the durable log files.
	Reattach(st wal.Storage) (ReattachReport, error)
}
