package mvcc

import (
	"math/bits"
	"sync/atomic"
)

// MaxReaders is the number of distinct worker slots the per-version reader
// bitmap can track for SSN's commit-time coordination.
const MaxReaders = 256

const readerWords = MaxReaders / 64

// Version is one historic version of a database record. Data and Tombstone
// are immutable after the version is published; the stamps evolve under the
// SSN protocol.
type Version struct {
	next atomic.Pointer[Version]

	// clsn is the creation stamp: the owner's TID tag while the
	// transaction is in flight or finishing post-commit, then the commit
	// LSN offset forever after.
	clsn atomic.Uint64

	// pstamp is η(V): the commit stamp of V's most recent committed reader.
	pstamp atomic.Uint64

	// sstamp is π(V): the successor stamp of the committed transaction that
	// overwrote V (Infinity while V is the latest version, a TID tag while
	// the overwriter is finishing its commit).
	sstamp atomic.Uint64

	// readers tracks in-flight readers by worker slot so a committing
	// overwriter can wait out readers with smaller commit stamps
	// (parallel SSN).
	readers [readerWords]atomic.Uint64

	// Data is the record payload. Nil-able; immutable once published.
	Data []byte

	// Tombstone marks a deleted record (delete is an update that installs
	// a tombstone version, §3.2).
	Tombstone bool
}

// NewVersion returns a version stamped with the creating transaction's
// stamp (normally a TID tag) and an unset successor.
func NewVersion(data []byte, clsn Stamp, tombstone bool) *Version {
	v := &Version{Data: data, Tombstone: tombstone}
	v.clsn.Store(clsn)
	v.sstamp.Store(Infinity)
	return v
}

// absentStamp is the creation stamp of an absent version: below every begin
// stamp (log offsets start above it), so every snapshot sees it.
const absentStamp Stamp = 1

// InitAbsent makes the zero Version v an absent version: the tombstone a
// serializable transaction links behind the first version of every record it
// creates, standing for "no such record" in every snapshot that cannot see
// the insert yet. It gives SSN a version to track such a snapshot's read on —
// reader marks, η, and the inserter's π once it commits — exactly as for a
// read of a version someone is overwriting.
func (v *Version) InitAbsent() {
	v.Tombstone = true
	v.clsn.Store(absentStamp)
	v.sstamp.Store(Infinity)
}

// Absent reports whether v is an absent version rather than a delete's
// tombstone.
func (v *Version) Absent() bool { return v.clsn.Load() == absentStamp }

// CLSN returns the creation stamp.
//
//ermia:hotpath visibility checks read the creation stamp on every version-chain hop
func (v *Version) CLSN() Stamp { return v.clsn.Load() }

// SetCLSN replaces the creation stamp; post-commit uses it to swap the TID
// tag for the commit LSN.
//
//ermia:hotpath post-commit stamp finalization runs once per write of every committed transaction
func (v *Version) SetCLSN(s Stamp) { v.clsn.Store(s) }

// Next returns the next-older version, or nil. Chain traversal is only safe
// under an epoch guard: a version unlinked by GC is freed once every epoch
// that could have observed it has been reclaimed.
//
//ermia:guarded
//ermia:hotpath version-chain traversal runs on every read of every record
func (v *Version) Next() *Version { return v.next.Load() }

// SetNext links v in front of older.
//
//ermia:hotpath install links a new version on every write
func (v *Version) SetNext(older *Version) { v.next.Store(older) }

// Pstamp returns η(V).
//
//ermia:hotpath SSN exclusion checks read η(V) on every read and commit
func (v *Version) Pstamp() Stamp { return v.pstamp.Load() }

// MaxPstamp raises η(V) to at least s.
//
//ermia:hotpath committed readers raise η(V) once per read-set entry at commit
func (v *Version) MaxPstamp(s Stamp) {
	for {
		old := v.pstamp.Load()
		if old >= s || v.pstamp.CompareAndSwap(old, s) {
			return
		}
	}
}

// Sstamp returns π(V).
//
//ermia:hotpath SSN exclusion checks read π(V) on every read and commit
func (v *Version) Sstamp() Stamp { return v.sstamp.Load() }

// SetSstamp publishes π(V) (a TID tag during the overwriter's commit, then
// the final successor stamp).
//
//ermia:hotpath overwriters publish π(V) once per write-set entry at commit
func (v *Version) SetSstamp(s Stamp) { v.sstamp.Store(s) }

// MarkReader records worker w as an in-flight reader of v and reports
// whether this call set the mark (false: w had already marked v).
//
//ermia:hotpath parallel SSN marks the reader bitmap on every read
func (v *Version) MarkReader(w int) bool {
	w &= MaxReaders - 1
	word, bit := w/64, uint(w%64)
	mask := uint64(1) << bit
	for {
		old := v.readers[word].Load()
		if old&mask != 0 {
			return false
		}
		if v.readers[word].CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// ClearReader removes worker w's reader mark.
//
//ermia:hotpath parallel SSN clears the reader bitmap when each reader finishes
func (v *Version) ClearReader(w int) {
	w &= MaxReaders - 1
	word, bit := w/64, uint(w%64)
	mask := uint64(1) << bit
	for {
		old := v.readers[word].Load()
		if old&mask == 0 || v.readers[word].CompareAndSwap(old, old&^mask) {
			return
		}
	}
}

// Readers invokes fn for each worker slot currently marked as a reader.
func (v *Version) Readers(fn func(w int)) {
	for word := 0; word < readerWords; word++ {
		w := v.readers[word].Load()
		for w != 0 {
			fn(word*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// HasReaders reports whether any reader mark is set.
//
//ermia:hotpath committing overwriters poll the reader bitmap while waiting out in-flight readers
func (v *Version) HasReaders() bool {
	for word := 0; word < readerWords; word++ {
		if v.readers[word].Load() != 0 {
			return true
		}
	}
	return false
}
