package core

import (
	"ermia/internal/engine"
	"ermia/internal/mvcc"
)

// Isolation selects the concurrency-control scheme layered on the physical
// substrate. §3.6: "ERMIA's physical layer allows efficient implementations
// of a variety of CC schemes, including read-set validation and
// multi-version CC" — all three run on the same indirection arrays, log,
// and epoch managers.
type Isolation int

const (
	// SnapshotIsolation is plain SI (ERMIA-SI): first-updater-wins writes,
	// no read tracking, write skew possible.
	SnapshotIsolation Isolation = iota
	// SSN overlays the Serial Safety Net certifier on SI (ERMIA-SSN):
	// serializable, with balanced reader/writer treatment.
	SSN
	// ReadValidation is multi-version OCC (ERMIA-RV): SI forward
	// processing plus Silo-style commit-time read-set validation — every
	// version read must still be the latest committed version at commit.
	// Serializable, but writers win over readers, so it reproduces the
	// reader-starvation behaviour the paper attributes to lightweight OCC.
	// Included as the "read-set validation" point in the design space.
	ReadValidation
)

func (i Isolation) String() string {
	switch i {
	case SnapshotIsolation:
		return "si"
	case SSN:
		return "ssn"
	case ReadValidation:
		return "read-validation"
	default:
		return "invalid"
	}
}

// rvRead is one tracked read for ReadValidation mode.
type rvRead struct {
	arr *mvcc.OIDArray
	oid mvcc.OID
	v   *mvcc.Version
}

// rvTrack records a read for commit-time validation. Own writes are not
// tracked: the write set defends them.
func (t *Txn) rvTrack(arr *mvcc.OIDArray, oid mvcc.OID, v *mvcc.Version, cstamp uint64) {
	if t.mode != ReadValidation || cstamp == 0 {
		return
	}
	t.rvReads = append(t.rvReads, rvRead{arr: arr, oid: oid, v: v})
}

// rvCommit validates the read set: each read version must still be the
// newest committed version of its record (our own overwrite of it counts
// as current). Any interleaved committed overwrite aborts us — writers win.
//
//ermia:guarded
func (t *Txn) rvCommit() error {
	for _, n := range t.nodeSet {
		if !n.h.Valid() {
			t.db.stats.PhantomAborts.Add(1)
			return engine.ErrPhantom
		}
	}
	for i := range t.rvReads {
		r := &t.rvReads[i]
		head := r.arr.Head(r.oid)
		if head == r.v {
			continue
		}
		// A tombstone we read and the collector has reclaimed since: the
		// record is as absent as it was, and a re-insert (a new OID) would
		// have failed the node set above.
		if head == nil && r.v.Tombstone {
			continue
		}
		// Our own write over the version we read is fine.
		if head != nil && mvcc.IsTID(head.CLSN()) &&
			mvcc.AsTID(head.CLSN()) == t.tid && head.Next() == r.v {
			continue
		}
		t.db.stats.RVAborts.Add(1)
		return engine.ErrReadValidation
	}
	return nil
}
