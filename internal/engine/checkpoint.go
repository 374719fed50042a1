package engine

import (
	"errors"

	"ermia/internal/wal"
)

// ErrNoCheckpoint reports a checkpoint-image request against an engine
// that has never published one (this run or any recovered run). Not a
// transaction outcome: a replica bootstrap falls back to mirroring the
// primary's log from its start.
//
//ermia:classify fatal an admin/bootstrap precondition, not a transaction outcome; retrying cannot conjure a checkpoint — the caller falls back to full-log replication
var ErrNoCheckpoint = errors.New("engine: no checkpoint available")

// CheckpointChunk is one slice of a checkpoint image plus the metadata a
// replica needs to bootstrap from it. The type lives here (not in the
// engine core) so the network server can serve checkpoint fetches through
// a capability assertion on its engine.DB without importing a concrete
// engine.
type CheckpointChunk struct {
	Name  string
	Gen   uint64
	Begin uint64 // checkpoint-begin offset; the seeded watermark
	Start uint64 // subscribe offset: start of the live segment holding the checkpoint's floor
	Total uint64 // full image size, including the checksum trailer
	Data  []byte
}

// Checkpointer is the capability a replica bootstraps from: checkpoint
// images and the live log to ship. A server needs it to serve the
// Checkpoint, CkptFetch and ReplSubscribe wire frames. The ERMIA core
// implements it; the Silo baseline does not (the frames are refused there).
type Checkpointer interface {
	// Checkpoint publishes a consistent checkpoint of the committed state.
	Checkpoint() error
	// TruncateLog frees sealed log segments entirely below the lowest
	// floor among the kept checkpoints, returning the removed segment
	// names.
	TruncateLog() ([]string, error)
	// CheckpointChunk serves up to max bytes of the newest checkpoint
	// image starting at byte offset off.
	CheckpointChunk(off uint64, max int) (CheckpointChunk, error)
	// Log is the live log manager to ship from; nil on a replica that has
	// not been promoted.
	Log() *wal.Manager
}
