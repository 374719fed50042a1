package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"ermia/internal/engine"
	"ermia/internal/index"
	"ermia/internal/mvcc"
	"ermia/internal/wal"
)

// SecondaryIndex is an ERMIA-native secondary access path: it maps
// secondary keys directly to OIDs in the table's indirection array (§2,
// "Latch-free indirection arrays"). Because indexes store the logical
// address rather than a physical pointer or a primary key, updates to a
// record touch neither the primary nor any secondary index — the
// indirection array absorbs them — and secondary lookups reach the version
// chain without the extra primary-index probe that key-mapping designs pay.
//
// Secondary keys are immutable for the life of a record: an update that
// changes the attribute a secondary index covers must delete and reinsert
// the record. (The alternative — multi-versioned index entries — is the
// part of the design space the paper leaves to the index.)
type SecondaryIndex struct {
	name string
	id   uint32
	tbl  *Table
	idx  *index.Tree[mvcc.OID]
}

// Name returns the index name.
func (s *SecondaryIndex) Name() string { return s.name }

// Table returns the indexed table.
func (s *SecondaryIndex) Table() *Table { return s.tbl }

// Len returns the number of secondary entries.
func (s *SecondaryIndex) Len() int { return s.idx.Len() }

// secondaryCatalog tracks a DB's secondary indexes (guarded by DB.mu).
type secondaryCatalog struct {
	byName map[string]*SecondaryIndex
	byID   map[uint32]*SecondaryIndex
	nextID atomic.Uint32
}

func newSecondaryCatalog() *secondaryCatalog {
	c := &secondaryCatalog{
		byName: make(map[string]*SecondaryIndex),
		byID:   make(map[uint32]*SecondaryIndex),
	}
	c.nextID.Store(1)
	return c
}

// CreateSecondaryIndex makes (or returns) a named secondary index over t.
// Creation is logged so recovery rebuilds the catalog; entries themselves
// are rebuilt from the logged insert records.
func (db *DB) CreateSecondaryIndex(t engine.Table, name string) *SecondaryIndex {
	if db.replica.Load() {
		// Catalog changes must come from the primary through the log.
		return db.OpenSecondaryIndex(name)
	}
	tab := t.(*Table)
	db.mu.Lock()
	if si, ok := db.secondaries.byName[name]; ok {
		db.mu.Unlock()
		return si
	}
	si := &SecondaryIndex{
		name: name,
		id:   db.secondaries.nextID.Add(1) - 1,
		tbl:  tab,
		idx:  index.New[mvcc.OID](),
	}
	db.secondaries.byName[name] = si
	db.secondaries.byID[si.id] = si
	db.mu.Unlock()

	rec := encodeCreateIndex(si.id, tab.id, name)
	res, err := db.logMgr().Reserve(len(rec), wal.BlockCommit)
	if err == nil {
		res.Append(rec)
		res.Commit()
	}
	return si
}

// OpenSecondaryIndex returns the named index, or nil.
func (db *DB) OpenSecondaryIndex(name string) *SecondaryIndex {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.secondaries.byName[name]
}

func (db *DB) secondaryByID(id uint32) *SecondaryIndex {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.secondaries.byID[id]
}

// createSecondaryRecovered rebuilds a secondary index during recovery.
func (db *DB) createSecondaryRecovered(id, tableID uint32, name string) *SecondaryIndex {
	tab := db.tableByID(tableID)
	if tab == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if si, ok := db.secondaries.byID[id]; ok {
		return si
	}
	si := &SecondaryIndex{name: name, id: id, tbl: tab, idx: index.New[mvcc.OID]()}
	db.secondaries.byName[name] = si
	db.secondaries.byID[id] = si
	if next := db.secondaries.nextID.Load(); id >= next {
		db.secondaries.nextID.Store(id + 1)
	}
	return si
}

// SecondaryEntry names one secondary key for an insert.
type SecondaryEntry struct {
	Index *SecondaryIndex
	Key   []byte
}

// InsertWithSecondary inserts a record and registers it under each
// secondary key. The secondary entries point at the same OID, so later
// updates to the record touch no index at all.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) InsertWithSecondary(tbl engine.Table, key, value []byte, secondary []SecondaryEntry) error {
	tab := t.table(tbl)
	for _, se := range secondary {
		if se.Index.tbl != tab {
			return fmt.Errorf("core: secondary index %q covers table %q, not %q",
				se.Index.name, se.Index.tbl.name, tab.name)
		}
	}
	if err := t.Insert(tbl, key, value); err != nil {
		return err
	}
	// The insert's write entry carries the OID (fresh or reused). lastWrite,
	// not the final element: a re-insert of a key this transaction deleted
	// coalesces into its existing write entry instead of appending.
	w := &t.writes[t.lastWrite]
	for _, se := range secondary {
		for {
			is := t.clock()
			existing, inserted, before, after := se.Index.idx.InsertH(se.Key, w.oid)
			t.accIndex(is)
			if t.ssn {
				t.refreshNode(before, after)
			}
			if inserted || existing == w.oid {
				break
			}
			// The secondary key is already bound to a different record.
			if tab.arr.Sealed(existing) {
				// A reclaimed record (or an aborted insert): nobody can see
				// anything through the binding any more. Drop it and bind again.
				se.Index.idx.DeleteIf(se.Key, existing)
				continue
			}
			// Reject if that record is visibly alive.
			if v, _ := t.readVisible(tab.arr, existing); v != nil && !v.Tombstone {
				return engine.ErrDuplicate
			}
			// Dead but not yet reclaimed: secondary keys are expected unique
			// per live record, and an older snapshot may still read the dead
			// one through this binding, so it stays and ours is not made.
			// (Multi-versioned index entries are future work, as in the paper.)
			break
		}
		w.sec = append(w.sec, loggedSecondary{index: se.Index.id, key: cloneKey(se.Key)})
	}
	return nil
}

// bindSecondary is replay's half of the above: bind skey → oid for the record
// whose primary key is pk. A binding to another OID is taken over (rebind)
// when that OID holds nothing, or a tombstone for the same primary key — the
// record was deleted and the primary, which would otherwise have reused the
// OID, had reclaimed it. The old chain is linked behind the new record's (see
// applyVersion), so a replica snapshot older than the delete reads the same
// through either binding.
//
//ermia:guard-entry called only next to applyVersion, under the same single-applier contract
func bindSecondary(si *SecondaryIndex, skey []byte, oid mvcc.OID, pk []byte) {
	if bound, ok := si.idx.Get(skey); ok && bound != oid {
		if old := si.tbl.arr.Head(bound); old != nil && !(old.Tombstone && bytes.Equal(old.Data, pk)) {
			return
		}
	}
	rebind(si.idx, skey, oid)
}

// GetBySecondary reads the record bound to skey through the secondary
// index: one tree probe, then straight to the version chain — no primary
// probe.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) GetBySecondary(si *SecondaryIndex, skey []byte) ([]byte, error) {
	if t.done {
		return nil, engine.ErrAborted
	}
	is := t.clock()
	oid, ok, h := si.idx.GetH(skey)
	t.accIndex(is)
	return t.readRecord(si.tbl.arr, oid, ok, h)
}

// ScanSecondary visits records with secondary keys in [lo, hi) in secondary
// order.
//
//ermia:guard-entry the worker's epoch slot was entered in begin and is held until finish; every Txn method runs inside that window
func (t *Txn) ScanSecondary(si *SecondaryIndex, lo, hi []byte, fn func(skey, value []byte) bool) error {
	if t.done {
		return engine.ErrAborted
	}
	var err error
	onLeaf := func(h index.Handle[mvcc.OID]) { t.addNode(h, true) }
	if !t.ssn {
		onLeaf = nil
	}
	si.idx.Scan(lo, hi, onLeaf, func(skey []byte, oid mvcc.OID) bool {
		v, cstamp := t.readVisible(si.tbl.arr, oid)
		if v == nil {
			return true
		}
		if err = t.ssnRead(v, cstamp); err != nil {
			return false
		}
		if v.Tombstone {
			return true
		}
		return fn(skey, v.Data)
	})
	return err
}

// loggedSecondary is one secondary binding carried in a write entry for
// logging.
type loggedSecondary struct {
	index uint32
	key   []byte
}

// ---- log records ----

// recCreateIndex and recInsertSec extend the base record set.
const (
	recCreateIndex uint8 = 16 + iota
	recInsertSec
)

func encodeCreateIndex(id, tableID uint32, name string) []byte {
	buf := make([]byte, 0, 11+len(name))
	buf = append(buf, recCreateIndex)
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint32(buf, tableID)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	return buf
}

// appendInsertSec encodes an insert with its secondary bindings:
// [kind][table][oid][klen][key][vlen][val][n u8]{[idx u32][sklen u32][skey]}.
func appendInsertSec(buf []byte, table uint32, oid uint64, key, val []byte, sec []loggedSecondary) []byte {
	buf = append(buf, recInsertSec)
	buf = binary.LittleEndian.AppendUint32(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	buf = append(buf, byte(len(sec)))
	for _, s := range sec {
		buf = binary.LittleEndian.AppendUint32(buf, s.index)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.key)))
		buf = append(buf, s.key...)
	}
	return buf
}
