package core

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"ermia/internal/epoch"
	"ermia/internal/index"
	"ermia/internal/mvcc"
)

// workerState is a worker slot's thread-local transaction context (§3.1):
// its epoch slot and counters, the scratch arrays its transactions fill, and
// the list of versions its commits made obsolete. Padded to avoid false
// sharing.
type workerState struct {
	slot    *epoch.Slot
	prof    Profile
	commits atomic.Uint64
	aborts  atomic.Uint64
	// scratch is parked here between transactions: begin takes it, finish
	// hands it back. The slot's one live transaction is its only user, so it
	// needs no lock.
	scratch txnScratch
	// garbage is what this worker's commits have overwritten since the last
	// RunGC.
	garbage garbageList
	// begin is the begin stamp of the slot's live transaction, published for
	// the collector's horizon: stampIdle with none, zero while begin is still
	// reading the clock (which blocks GC entirely, as it must — the stamp
	// about to land may be older than anything the collector can see). live
	// counts the slot's open transactions; only the owner touches it.
	begin atomic.Uint64
	live  int
	_     [8]byte
}

// stampIdle is a published begin stamp that holds no horizon.
const stampIdle = math.MaxUint64

// scratchKeepBytes bounds each array a worker context or the collector
// retains between uses: one that grew past it is dropped rather than parked,
// so a single huge transaction (a 100 %-size Q2*) does not pin its footprint
// on the slot forever. 64 KB holds 8 192 reads or 2 730 tracked leaves, a few
// times what the largest TPC-C-hybrid transaction needs.
const scratchKeepBytes = 64 << 10

// park empties s for reuse, zeroing the used prefix so nothing it pointed at
// stays reachable, or drops it when it outgrew scratchKeepBytes.
func park[T any](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > scratchKeepBytes {
		return nil
	}
	clear(s)
	return s[:0]
}

// txnScratch is the storage a transaction fills during forward processing
// and drops when it finishes. It is embedded in Txn and parked in the worker
// context in between, so a warm worker runs transactions without growing
// these from nil each time.
type txnScratch struct {
	reads   []*mvcc.Version
	writes  []writeEntry
	nodeSet []trackedNode
	// nodeTab is an open-addressed set over nodeSet, keyed by leaf slot: an
	// entry is a position in nodeSet plus one, zero is empty. Everything
	// past its length is zero, so it can be resliced without clearing.
	nodeTab []uint32
	logBuf  []byte
}

// trackedNode is one node-set entry: a leaf at the version the transaction
// saw it. gap is set once the transaction relied on a key being absent from
// the leaf — a lookup that found no record, or a scan, which reads the spaces
// between the keys it visits. Only those leaves get the transaction's commit
// stamp (see ssnCommit); a lookup that hit read a version, which carries the
// stamps itself.
type trackedNode struct {
	h   index.Handle[mvcc.OID]
	gap bool
}

// parked returns s ready for the next transaction.
func (s *txnScratch) parked() txnScratch {
	return txnScratch{
		reads:   park(s.reads),
		writes:  park(s.writes),
		nodeSet: park(s.nodeSet),
		nodeTab: park(s.nodeTab),
		logBuf:  park(s.logBuf[:0]),
	}
}

func (s *txnScratch) nodeSlot(h index.Handle[mvcc.OID]) uint32 {
	return uint32((uint64(h.Slot())*0x9E3779B97F4A7C15)>>32) & uint32(len(s.nodeTab)-1)
}

// findNode returns h's position in nodeSet, or -1.
func (s *txnScratch) findNode(h index.Handle[mvcc.OID]) int {
	if len(s.nodeTab) == 0 {
		return -1
	}
	for p := s.nodeSlot(h); s.nodeTab[p] != 0; p = (p + 1) & uint32(len(s.nodeTab)-1) {
		if i := int(s.nodeTab[p] - 1); s.nodeSet[i].h == h {
			return i
		}
	}
	return -1
}

// appendNode adds h, which findNode did not find, to nodeSet.
func (s *txnScratch) appendNode(h index.Handle[mvcc.OID], gap bool) {
	s.nodeSet = append(s.nodeSet, trackedNode{h, gap})
	n := len(s.nodeSet)
	first := n - 1
	if 2*n > len(s.nodeTab) {
		// Past half full: double the table and index every handle again.
		size := max(64, 2*len(s.nodeTab))
		if size <= cap(s.nodeTab) {
			clear(s.nodeTab)
			s.nodeTab = s.nodeTab[:size]
		} else {
			s.nodeTab = make([]uint32, size)
		}
		first = 0
	}
	for i := first; i < n; i++ {
		p := s.nodeSlot(s.nodeSet[i].h)
		for s.nodeTab[p] != 0 {
			p = (p + 1) & uint32(len(s.nodeTab)-1)
		}
		s.nodeTab[p] = uint32(i + 1)
	}
}

// garbageEntry records that the version committed at cstamp overwrote an
// older one at oid, or is a tombstone: once no snapshot begins at or below
// cstamp, everything behind that version is unreachable, and if that version
// is a tombstone so is the record.
type garbageEntry struct {
	tbl    *Table
	oid    mvcc.OID
	cstamp uint64
}

// garbageList collects overwrites between RunGC rounds. Its owner (one
// worker, or the applier) appends under the lock once per commit; only the
// collector ever contends for it. A drain swaps entries for drained, the
// array the previous drain emptied, so the list's two arrays take turns and
// settle at the size one round's writes need; they are not bounded by
// scratchKeepBytes, because the write rate, not one transaction, sets that
// size.
type garbageList struct {
	mu      sync.Mutex
	entries []garbageEntry
	// drained is touched only by the collector, under DB.gcMu.
	drained []garbageEntry
}

func (g *garbageList) add(e garbageEntry) {
	g.mu.Lock()
	g.entries = append(g.entries, e)
	g.mu.Unlock()
}
