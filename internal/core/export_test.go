package core

import (
	"ermia/internal/mvcc"
)

// sweepGC is the collector RunGC replaced: visit every OID of every table
// and prune its chain at the current horizon. Tests keep it as the
// reference for what a GC round may leave behind; it returns the number of
// versions it unlinked plus the deleted records it found ready to reclaim
// (which it leaves alone), so "RunGC left what the sweep would have" is
// sweepGC() == 0 right after a RunGC at the same horizon.
//
//ermia:guard-entry test-only reference collector, run on an engine the test has quiesced
func (db *DB) sweepGC() int {
	horizon := db.horizon()
	removed := 0
	for _, t := range db.allTables() {
		arr := t.arr
		arr.Scan(func(oid mvcc.OID, _ *mvcc.Version) bool {
			removed += arr.Prune(oid, horizon)
			if tomb := arr.DeadTombstone(oid, horizon); tomb != nil && len(tomb.Data) > 0 {
				removed++ // a record RunGC should have reclaimed
			}
			return true
		})
	}
	return removed
}

// queuedGarbage counts the overwrites waiting for a GC round: on the
// workers' lists, on the appliers' list and in the collector's queue.
func (db *DB) queuedGarbage() int {
	db.gcMu.Lock()
	n := len(db.gcQueue)
	db.gcMu.Unlock()
	count := func(g *garbageList) {
		g.mu.Lock()
		n += len(g.entries)
		g.mu.Unlock()
	}
	count(&db.applied)
	for i := range db.workers {
		count(&db.workers[i].garbage)
	}
	return n
}

// longestChain returns the longest version chain in any table.
//
//ermia:guard-entry test-only diagnostic, run on an engine the test has quiesced
func (db *DB) longestChain() int {
	longest := 0
	for _, t := range db.allTables() {
		t.arr.Scan(func(_ mvcc.OID, head *mvcc.Version) bool {
			n := 0
			for v := head; v != nil; v = v.Next() {
				n++
			}
			if n > longest {
				longest = n
			}
			return true
		})
	}
	return longest
}

// indexEntries returns the table's primary index as key → OID.
func (t *Table) indexEntries() map[string]mvcc.OID {
	out := map[string]mvcc.OID{}
	t.idx.Scan(nil, nil, nil, func(k []byte, oid mvcc.OID) bool {
		out[string(k)] = oid
		return true
	})
	return out
}

// unreachableChains counts OIDs that hold a version chain the primary index
// does not reach: a version installed on an OID whose key has left (or never
// entered) the index is lost to every reader.
//
//ermia:guard-entry test-only diagnostic, run on an engine the test has quiesced
func (t *Table) unreachableChains() int {
	reached := map[mvcc.OID]bool{}
	for _, oid := range t.indexEntries() {
		reached[oid] = true
	}
	n := 0
	t.arr.Scan(func(oid mvcc.OID, _ *mvcc.Version) bool {
		if !reached[oid] {
			n++
		}
		return true
	})
	return n
}
