package mvcc

import (
	"sync/atomic"
)

// OID is a logical object identifier: an index into a table's indirection
// array. OIDs are dense, starting at 1 (0 is invalid).
type OID uint64

// InvalidOID is the zero OID.
const InvalidOID OID = 0

const (
	chunkBits = 14 // 16K slots per chunk
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	dirSize   = 1 << 17 // up to ~2.1B OIDs per table
	maxOID    = uint64(dirSize * chunkSize)
)

type chunk [chunkSize]atomic.Pointer[Version]

// sealed is the dead marker: a slot holding it belongs to a record whose key
// has left (or is about to leave) the index. Readers see such a slot as
// empty, and no transaction can install a version on it: every install is a
// CAS against the head the writer read, and sealed is never handed out as
// one. OIDs are not recycled, so the slot stays sealed; only a replaying
// applier, repeating what the primary did to the same OID, stores over it.
var sealed = new(Version)

// OIDArray is a latch-free indirection array mapping OIDs to version chain
// heads. The array grows by installing fixed-size chunks into a static
// directory with CAS, so readers never take a lock and existing slots never
// move (no resize copying, no ABA).
type OIDArray struct {
	dir  [dirSize]atomic.Pointer[chunk]
	next atomic.Uint64 // OID allocator; next OID to hand out
}

// NewOIDArray returns an empty array whose first allocated OID will be 1.
func NewOIDArray() *OIDArray {
	a := &OIDArray{}
	a.next.Store(1)
	return a
}

// Alloc reserves a fresh OID. Allocation is contention-free beyond one
// fetch-and-add: no two threads ever receive the same OID, so the
// subsequent slot initialization needs no synchronization (§3.2, Insert).
func (a *OIDArray) Alloc() OID {
	oid := a.next.Add(1) - 1
	if oid >= maxOID {
		panic("mvcc: OID space exhausted")
	}
	return OID(oid)
}

// EnsureAllocated advances the allocator so that every OID up to and
// including oid is considered allocated; recovery uses it to rebuild the
// allocator from logged inserts.
func (a *OIDArray) EnsureAllocated(oid OID) {
	for {
		cur := a.next.Load()
		if cur > uint64(oid) {
			return
		}
		if a.next.CompareAndSwap(cur, uint64(oid)+1) {
			return
		}
	}
}

// MaxOID returns the largest OID handed out so far (0 if none).
func (a *OIDArray) MaxOID() OID { return OID(a.next.Load() - 1) }

// ValidOID reports whether oid lies inside the addressable OID space.
// Decoders of external images (checkpoint blobs, log records) must reject
// invalid OIDs before touching an array: an out-of-range OID would index
// past the chunk directory.
func ValidOID(oid OID) bool { return oid != InvalidOID && uint64(oid) < maxOID }

// chunkFor returns the chunk holding oid, creating it on demand.
func (a *OIDArray) chunkFor(oid OID, create bool) *chunk {
	ci := uint64(oid) >> chunkBits
	c := a.dir[ci].Load()
	if c == nil && create {
		fresh := new(chunk)
		if a.dir[ci].CompareAndSwap(nil, fresh) {
			return fresh
		}
		c = a.dir[ci].Load()
	}
	return c
}

func (a *OIDArray) slot(oid OID, create bool) *atomic.Pointer[Version] {
	c := a.chunkFor(oid, create)
	if c == nil {
		return nil
	}
	return &c[uint64(oid)&chunkMask]
}

// Head returns the newest version of oid, or nil if the slot is empty. The
// returned pointer is only safe to dereference while the caller's epoch
// slot is entered: once the caller's epoch is reclaimable, GC may recycle
// the version.
//
//ermia:guarded
func (a *OIDArray) Head(oid OID) *Version {
	s := a.slot(oid, false)
	if s == nil {
		return nil
	}
	if v := s.Load(); v != sealed {
		return v
	}
	return nil
}

// Seal retires oid if its chain is still exactly only, a version with
// nothing behind it: the slot swings from only to the dead marker in one
// CAS, so a writer that read only as the head loses its install and a writer
// that installed first makes Seal fail. The caller then removes the key from
// the index; Sealed tells a writer that it must go back there.
func (a *OIDArray) Seal(oid OID, only *Version) bool {
	return only != nil && a.slot(oid, true).CompareAndSwap(only, sealed)
}

// Sealed reports whether oid has been retired by Seal.
func (a *OIDArray) Sealed(oid OID) bool {
	s := a.slot(oid, false)
	return s != nil && s.Load() == sealed
}

// DeadTombstone returns oid's chain if it has shrunk to one committed
// tombstone older than horizon — a deleted record no current or future
// snapshot can see alive, ready for Seal — and nil otherwise.
//
//ermia:guarded
func (a *OIDArray) DeadTombstone(oid OID, horizon uint64) *Version {
	v := a.Head(oid)
	if v == nil || !v.Tombstone || v.Next() != nil {
		return nil
	}
	if s := v.CLSN(); IsTID(s) || s >= horizon {
		return nil
	}
	return v
}

// Install writes v into a freshly allocated slot. The slot must not be
// shared with another writer yet (a new OID is private to its allocator, and
// replay has one applier).
func (a *OIDArray) Install(oid OID, v *Version) {
	a.slot(oid, true).Store(v)
}

// CASHead atomically replaces the chain head: the update protocol's single
// compare-and-swap. It returns false when another writer won the race.
func (a *OIDArray) CASHead(oid OID, old, new *Version) bool {
	return a.slot(oid, true).CompareAndSwap(old, new)
}

// Scan invokes fn for every allocated OID with a non-nil head, in OID
// order. The garbage collector and checkpointer drive their passes with it.
// fn returning false stops the scan. fn receives live chain heads, so the
// whole scan must run under an epoch guard.
//
//ermia:guarded
func (a *OIDArray) Scan(fn func(oid OID, head *Version) bool) {
	max := a.next.Load()
	for ci := uint64(0); ci*chunkSize < max && ci < dirSize; ci++ {
		c := a.dir[ci].Load()
		if c == nil {
			continue
		}
		base := ci * chunkSize
		for i := 0; i < chunkSize && base+uint64(i) < max; i++ {
			if v := c[i].Load(); v != nil && v != sealed {
				if !fn(OID(base+uint64(i)), v) {
					return
				}
			}
		}
	}
}

// Prune trims oid's version chain so that at most one version visible at
// horizon (an LSN offset) survives as the chain tail: every transaction
// whose begin stamp is at or past horizon reads either a newer version or
// that one. It returns the number of versions unlinked. Versions with
// TID-tagged stamps (in-flight or finishing) are never cut. Prune walks the
// chain it is cutting, so it must itself run under an epoch guard.
//
//ermia:guarded
func (a *OIDArray) Prune(oid OID, horizon uint64) int {
	v := a.Head(oid)
	// Find the newest committed version with clsn < horizon; everything
	// older than it is invisible to every current and future snapshot.
	for v != nil {
		s := v.CLSN()
		if !IsTID(s) && s < horizon {
			break
		}
		v = v.Next()
	}
	if v == nil {
		return 0
	}
	removed := 0
	for old := v.Next(); old != nil; old = old.Next() {
		removed++
	}
	if removed > 0 {
		v.SetNext(nil)
	}
	return removed
}
