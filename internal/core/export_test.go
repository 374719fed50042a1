package core

import "ermia/internal/mvcc"

// sweepGC is the collector RunGC replaced: visit every OID of every table
// and prune its chain at the current horizon. Tests keep it as the
// reference for what a GC round may leave behind; it returns the number of
// versions it unlinked, so "RunGC left what the sweep would have" is
// sweepGC() == 0 right after a RunGC at the same horizon.
//
//ermia:guard-entry test-only reference collector, run on an engine the test has quiesced
func (db *DB) sweepGC() int {
	horizon := db.tids.MinActiveBegin()
	if cur := db.beginStamp(); cur < horizon {
		horizon = cur
	}
	removed := 0
	for _, t := range db.allTables() {
		arr := t.arr
		arr.Scan(func(oid mvcc.OID, _ *mvcc.Version) bool {
			removed += arr.Prune(oid, horizon)
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
