package proto

import (
	"errors"
	"fmt"

	"ermia/internal/engine"
	"ermia/internal/wal"
)

// Status is the 2-byte outcome code leading every response payload. The
// codes are a bijection with the engine error taxonomy (plus the
// server-side admission codes), so a client can rebuild the exact sentinel
// error a local engine would have returned — errors.Is, Classify, and
// RunWithRetry behave identically over the wire and in process.
//
//ermia:exhaustive
type Status uint16

const (
	// StatusOK is the success code; it maps to a nil error, not a sentinel,
	// so it stands outside the statusTable bijection.
	StatusOK Status = iota
	StatusNotFound
	StatusDuplicate
	StatusWriteConflict
	StatusReadValidation
	StatusSerialization
	StatusPhantom
	StatusAborted
	StatusReadOnlyDegraded
	StatusOverloaded
	StatusShuttingDown
	// StatusUnknownTxn reports an operation naming a transaction id the
	// session does not hold (already ended, or never begun here).
	StatusUnknownTxn
	// StatusUnknownTable reports an operation naming a table that does not
	// exist on the server.
	StatusUnknownTable
	// StatusBadRequest reports a payload the server could parse as a frame
	// but not as a message.
	StatusBadRequest
	// StatusReplicaReadOnly reports a write refused because the serving
	// engine is a replication replica; writes must go to the primary (or
	// wait for this replica's promotion).
	StatusReplicaReadOnly
	// StatusInternal carries any error outside the taxonomy as text.
	StatusInternal
	// StatusTailTruncated reports a replication subscribe (or in-flight
	// stream) whose position fell below the primary's truncation horizon:
	// checkpointing freed the segments the replica would need. The typed
	// code lets the replica re-seed from the latest checkpoint instead of
	// treating the stream as broken. Appended after StatusInternal to keep
	// existing wire values stable.
	StatusTailTruncated
	// StatusNoCheckpoint reports a checkpoint fetch against a primary that
	// has never published one; the replica falls back to mirroring the log
	// from its start.
	StatusNoCheckpoint
	// StatusDeadlineExceeded reports a request whose frame-header deadline
	// budget expired before the server finished it; the transaction it named
	// has been aborted. Appended after StatusNoCheckpoint to keep existing
	// wire values stable.
	StatusDeadlineExceeded
	// StatusStaleEpoch reports a request fenced because the server's primary
	// epoch is lower than the epoch the client has already observed: the
	// server is a deposed primary (e.g. a healed partition survivor) and
	// must not accept work.
	StatusStaleEpoch
	// Values 20–22 carried the retired server-side query statuses (see
	// wire.golden); they stay reserved so later values keep their numbers.
	_
	_
	_
	// StatusTxnInDoubt reports a prepared cross-shard transaction whose
	// commit decision could not be applied or learned; the writes are
	// durable in a prepare record and resolution is pending. Appended after
	// the retired values 20–22 to keep existing wire values stable.
	StatusTxnInDoubt
	// StatusShardMoved reports a request carrying a shard-map version that
	// does not match the participant's: the router's map is stale and must
	// be refreshed before re-routing.
	StatusShardMoved
)

// Server-side request errors with no engine sentinel. They are fatal to the
// issuing transaction, matching how a local engine treats misuse.
var (
	ErrUnknownTxn   = errors.New("proto: unknown transaction id")
	ErrUnknownTable = errors.New("proto: unknown table")
	ErrBadRequest   = errors.New("proto: bad request")
)

// statusTable is the bijection between statuses and sentinel errors; both
// directions below walk it, so the two mappings cannot drift apart.
var statusTable = []struct {
	status Status
	err    error
}{
	{StatusNotFound, engine.ErrNotFound},
	{StatusDuplicate, engine.ErrDuplicate},
	{StatusWriteConflict, engine.ErrWriteConflict},
	{StatusReadValidation, engine.ErrReadValidation},
	{StatusSerialization, engine.ErrSerialization},
	{StatusPhantom, engine.ErrPhantom},
	{StatusAborted, engine.ErrAborted},
	{StatusReadOnlyDegraded, engine.ErrReadOnlyDegraded},
	{StatusReplicaReadOnly, engine.ErrReplicaReadOnly},
	{StatusOverloaded, engine.ErrOverloaded},
	{StatusShuttingDown, engine.ErrShutdown},
	{StatusUnknownTxn, ErrUnknownTxn},
	{StatusUnknownTable, ErrUnknownTable},
	{StatusBadRequest, ErrBadRequest},
	// The replication stream's truncation signal is the WAL sentinel itself
	// so the repl layer sees the same error whether the tail it outran is
	// local (embedded replica) or remote (streamed): errors.Is works
	// identically on both paths.
	{StatusTailTruncated, wal.ErrTailTruncated},
	{StatusNoCheckpoint, engine.ErrNoCheckpoint},
	{StatusDeadlineExceeded, engine.ErrDeadlineExceeded},
	{StatusStaleEpoch, engine.ErrStaleEpoch},
	{StatusTxnInDoubt, engine.ErrTxnInDoubt},
	{StatusShardMoved, engine.ErrShardMoved},
}

// StatusOf maps a server-side error to its wire status plus a detail string
// (non-empty only for StatusInternal, whose text is the only information the
// client gets).
func StatusOf(err error) (Status, string) {
	if err == nil {
		return StatusOK, ""
	}
	for _, e := range statusTable {
		if errors.Is(err, e.err) {
			return e.status, ""
		}
	}
	return StatusInternal, err.Error()
}

// Err rebuilds the typed error for a status received off the wire. detail
// is the StatusInternal text; returns nil for StatusOK.
func (s Status) Err(detail string) error {
	if s == StatusOK {
		return nil
	}
	for _, e := range statusTable {
		if e.status == s {
			return e.err
		}
	}
	if s == StatusInternal {
		return fmt.Errorf("proto: server error: %s", detail)
	}
	return fmt.Errorf("proto: unknown status %d (%s)", s, detail)
}

// AppendStatus appends a response status header to b.
//
//ermia:hotpath every response carries a status header; encoding it must not allocate
func AppendStatus(b []byte, s Status) []byte { return AppendU16(b, uint16(s)) }

// DecStatus reads the response status header.
//
//ermia:hotpath every response carries a status header; decoding it must not allocate
func (d *Dec) Status() Status { return Status(d.U16()) }
