// Package repl implements log-shipping replication: a primary streams its
// durable log to read-only replicas, which mirror the segment files
// byte-for-byte, replay committed transactions into their in-memory state,
// and can be promoted to primary when the original fails.
//
// The design leans on two ERMIA properties. First, the centralized log is
// the authoritative, totally ordered copy of the database and contains only
// committed state (§3.7) — so replication is exactly "ship the durable log
// suffix", with no undo records, no dirty pages, and no transaction-level
// coordination. Second, snapshot isolation already serves readers from
// version chains stamped with commit LSNs — so a replica gets consistent
// reads for free by pinning each transaction's begin timestamp at its
// replay watermark: the offset just past the last fully applied commit
// block. A reader can never observe half of a shipped transaction, because
// a transaction becomes visible only when the watermark passes its commit
// block, and that happens only after every one of its records is installed.
//
// Wire shape: the replica connects to the primary's normal server port and
// sends MsgReplSubscribe carrying the offset to resume from (its
// watermark). The server answers, then pushes MsgReplBatch frames on the
// same request id for as long as the session lives; the replica sends
// MsgReplAck requests with its applied watermark so the primary can report
// subscriber progress. Batches are validated whole (frame CRC plus an
// inner batch CRC) before any byte is mirrored or applied: a torn batch is
// dropped and the replica resynchronizes by reconnecting from its
// watermark.
//
// Promotion seals the stream, replays whatever the mirror holds past the
// watermark, opens a real log manager over the mirror, and flips the
// engine from Replica to Healthy — after which the former replica is an
// ordinary primary that can itself be subscribed to.
package repl

import (
	"time"

	"ermia/internal/proto"
	"ermia/internal/wal"
)

// Shipper streams a primary's durable log as replication batches. The
// server runs one Shipper per subscribed session.
type Shipper struct {
	// Log is the primary's log manager.
	Log *wal.Manager
	// MaxBatch caps the block bytes gathered into one batch. Default 256KiB
	// (comfortably under the frame payload cap).
	MaxBatch int
	// Poll is the sleep between tail reads when the stream has caught up to
	// the durable horizon. Default 2ms.
	Poll time.Duration
	// Heartbeat, when positive, rate-limits OnIdle callbacks while the
	// stream is caught up, letting the session advertise liveness (and its
	// epoch) to a subscriber that would otherwise hear nothing on a quiet
	// primary.
	Heartbeat time.Duration
	// OnIdle is invoked at most once per Heartbeat interval while caught
	// up. An error ends the stream silently, like an emit error.
	OnIdle func() error
}

// Run streams batches from logical offset `from` until stop closes or the
// tail fails, invoking emit for each non-empty batch. Batch payloads alias
// the tail's scratch buffer: emit must finish with the batch (encode it to
// the wire) before returning. An emit error ends the stream silently (the
// subscriber is gone); a tail error is returned — it means the requested
// suffix is truncated or the log is corrupt, and the subscriber must be
// told.
func (sh *Shipper) Run(from uint64, stop <-chan struct{}, emit func(*proto.ReplBatch) error) error {
	maxBatch := sh.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 256 << 10
	}
	poll := sh.Poll
	if poll <= 0 {
		poll = 2 * time.Millisecond
	}
	tail := sh.Log.TailFrom(from)
	timer := time.NewTimer(poll)
	defer timer.Stop()
	batch := &proto.ReplBatch{}
	var lastBeat time.Time
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		blocks, segs, err := tail.Next(maxBatch)
		if err != nil {
			return err
		}
		if len(blocks) == 0 {
			// Caught up: heartbeat if due, then wait for the horizon to move.
			if sh.Heartbeat > 0 && sh.OnIdle != nil && time.Since(lastBeat) >= sh.Heartbeat {
				if err := sh.OnIdle(); err != nil {
					return nil
				}
				lastBeat = time.Now()
			}
			timer.Reset(poll)
			select {
			case <-stop:
				return nil
			case <-timer.C:
			}
			continue
		}
		batch.Durable = sh.Log.DurableOffset()
		batch.Segments = batch.Segments[:0]
		for _, sm := range segs {
			batch.Segments = append(batch.Segments, proto.ReplSegment{
				Num: uint32(sm.Num), Start: sm.Start, End: sm.End,
			})
		}
		batch.Blocks = batch.Blocks[:0]
		for _, b := range blocks {
			batch.Blocks = append(batch.Blocks, proto.ReplBlock{
				Off: b.LSN.Offset(), Size: uint32(b.Size), Type: b.Type, Prev: b.Prev, Payload: b.Payload,
			})
		}
		if err := emit(batch); err != nil {
			return nil
		}
	}
}
