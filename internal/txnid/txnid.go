// Package txnid implements ERMIA's transaction ID manager (paper §3.5).
//
// A TID combines an offset into a fixed 64K-entry table (where transaction
// state lives) with a generation number distinguishing it from earlier
// transactions that used the same slot. Versions are stamped with the
// owner's TID until post-commit; other transactions encountering a
// TID-stamped version inquire here for the true status. Inquiries have three
// outcomes: the transaction is still in flight, it has ended (commit stamp
// returned), or the TID is from a previous generation — in which case the
// caller re-reads the location that produced the TID, which by then is
// guaranteed to hold a proper commit stamp.
//
// All protocols are lock-free: slots are claimed with a CAS and the
// generation check (plus a verify re-read) makes recycled slots safe to
// inquire concurrently.
package txnid

import (
	"errors"
	"sync/atomic"
)

// NumSlots is the fixed TID table capacity. The system handles far fewer
// in-flight transactions at a time, so at most a small fraction of the table
// is occupied by slow transactions.
const NumSlots = 1 << 16

const slotMask = NumSlots - 1

// TID identifies a transaction: generation in the high 48 bits, table slot
// in the low 16. A TID is never zero (generations start at 1).
type TID uint64

// Slot returns the TID's table slot.
func (t TID) Slot() int { return int(t & slotMask) }

// Generation returns the TID's generation number.
func (t TID) Generation() uint64 { return uint64(t) >> 16 }

// Status is a transaction's lifecycle state.
type Status uint32

const (
	// StatusFree marks an unallocated slot.
	StatusFree Status = iota
	// StatusActive covers forward processing: no commit stamp yet. Any
	// commit stamp the transaction eventually acquires will be greater
	// than the log's current offset.
	StatusActive
	// StatusCommitting means the transaction entered pre-commit: its commit
	// stamp is fixed (or, while it reads zero, about to be), but the outcome
	// (commit or abort) is not. Readers whose begin stamp postdates the
	// commit stamp must wait for resolution to keep their snapshot
	// consistent.
	StatusCommitting
	// StatusCommitted means the transaction committed; it may still be
	// replacing TID stamps with its commit stamp (post-commit).
	StatusCommitted
	// StatusAborted means the transaction aborted and is unlinking its
	// write set.
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusFree:
		return "free"
	case StatusActive:
		return "active"
	case StatusCommitting:
		return "committing"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "invalid"
	}
}

// ErrTableFull reports that every TID slot is occupied.
var ErrTableFull = errors.New("txnid: TID table full")

type entry struct {
	tid    atomic.Uint64 // full TID of current owner; 0 when free
	gen    atomic.Uint64 // last generation used by this slot
	begin  atomic.Uint64 // owner's begin stamp; 0 while initializing
	cstamp atomic.Uint64 // owner's commit stamp, valid once committing
	status atomic.Uint32
	_      [24]byte // pad to a cache line
}

// Manager is the TID table. All methods are safe for concurrent use.
type Manager struct {
	entries []entry
	hint    atomic.Uint64 // rotating allocation cursor
}

// NewManager returns an empty TID table.
func NewManager() *Manager {
	return &Manager{entries: make([]entry, NumSlots)}
}

// Allocate claims a TID for a new transaction. beginFn is called after the
// slot is visible as active to produce the begin stamp (typically the log
// manager's current offset), which Begin then reports. (The garbage
// collector's horizon comes from the stamps the engine's worker slots
// publish, not from this table.)
func (m *Manager) Allocate(beginFn func() uint64) (TID, error) {
	start := m.hint.Add(1)
	for i := uint64(0); i < NumSlots; i++ {
		slot := (start + i) & slotMask
		e := &m.entries[slot]
		if e.tid.Load() != 0 {
			continue
		}
		gen := e.gen.Load() + 1
		tid := TID(gen<<16 | slot)
		if !e.tid.CompareAndSwap(0, uint64(tid)) {
			continue
		}
		e.gen.Store(gen)
		e.begin.Store(0)
		e.cstamp.Store(0)
		e.status.Store(uint32(StatusActive))
		e.begin.Store(beginFn())
		return tid, nil
	}
	return 0, ErrTableFull
}

func (m *Manager) entryOf(t TID) *entry { return &m.entries[t.Slot()] }

// SetCommitting publishes the transaction's commit stamp and moves it to
// the committing state. Must be called by the owner, and twice: with a zero
// stamp before it obtains the stamp, then with the stamp. The first call ends
// StatusActive's promise before the stamp exists; in between, inquirers see a
// committing transaction with stamp zero, which every one of them treats as
// "wait": zero is below any stamp they compare it with.
func (m *Manager) SetCommitting(t TID, cstamp uint64) {
	e := m.entryOf(t)
	e.cstamp.Store(cstamp)
	e.status.Store(uint32(StatusCommitting))
}

// SetCommitted marks the transaction committed. All its updates become
// atomically visible at this point. Must be called by the owner.
func (m *Manager) SetCommitted(t TID) {
	m.entryOf(t).status.Store(uint32(StatusCommitted))
}

// SetAborted marks the transaction aborted. Must be called by the owner.
func (m *Manager) SetAborted(t TID) {
	m.entryOf(t).status.Store(uint32(StatusAborted))
}

// Release returns the slot to the free pool after post-commit (or abort
// cleanup) finishes. The owner must have removed every TID stamp bearing t
// from shared structures first.
func (m *Manager) Release(t TID) {
	e := m.entryOf(t)
	e.status.Store(uint32(StatusFree))
	e.tid.Store(0)
}

// Inquire reports the state of the transaction identified by t. ok is false
// when t belongs to a previous generation: the caller should re-read the
// location that produced the TID, which now holds a proper commit stamp.
// With ok true the status is never StatusFree.
func (m *Manager) Inquire(t TID) (status Status, cstamp uint64, ok bool) {
	e := m.entryOf(t)
	if e.tid.Load() != uint64(t) {
		return StatusFree, 0, false
	}
	status = Status(e.status.Load())
	cstamp = e.cstamp.Load()
	// The slot may have been recycled between the loads; verify ownership.
	// Release stores StatusFree before it clears tid (the other order would
	// let a late StatusFree overwrite the next owner's StatusActive), so a
	// free status read under a still-matching tid is t releasing: gone too.
	if status == StatusFree || e.tid.Load() != uint64(t) {
		return StatusFree, 0, false
	}
	return status, cstamp, true
}

// Begin returns the transaction's begin stamp, with ok false for a stale
// generation.
func (m *Manager) Begin(t TID) (uint64, bool) {
	e := m.entryOf(t)
	if e.tid.Load() != uint64(t) {
		return 0, false
	}
	b := e.begin.Load()
	if e.tid.Load() != uint64(t) {
		return 0, false
	}
	return b, true
}

// ActiveCount returns the number of in-flight transactions, for stats.
func (m *Manager) ActiveCount() int {
	n := 0
	for i := range m.entries {
		s := Status(m.entries[i].status.Load())
		if s == StatusActive || s == StatusCommitting {
			n++
		}
	}
	return n
}
