package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"

	"ermia/internal/engine"
	"ermia/internal/index"
	"ermia/internal/mvcc"
	"ermia/internal/txnid"
	"ermia/internal/wal"
)

// This file implements the consistent checkpointer (§3.7): a fuzzy-looking
// scan that is nevertheless transactionally consistent, because it reuses the
// engine's own visibility machinery inside a pinned SI snapshot instead of
// skipping in-flight versions.
//
// Protocol:
//
//  1. Pin the GC horizon by publishing the current log offset as a begin
//     stamp (DB.ckptPin): the collector's horizon now stays at or below the
//     snapshot for the whole scan, so Prune can never unlink the newest
//     version below the cut while the scan walks a chain, and a record the
//     collector reclaims meanwhile was deleted below the cut either way.
//  2. Log the checkpoint-begin record under the exclusive side of logGate.
//     Every commit window (Reserve → SetCommitting → Commit) runs under the
//     read side, so when the write lock is granted every transaction whose
//     commit offset precedes the begin record has already published its
//     Committing status. That closes the reserved-but-still-Active race and
//     makes the begin offset a clean cut: the blob holds exactly the
//     committed state below it, replay covers everything above it. The lock
//     also takes the floor of the chains open transactions logged below the
//     cut (chainFloor), which the blob header records. The begin record is
//     made durable before step 4.
//  3. Scan every table through ckptVisible — Txn.visible with the begin
//     offset as the snapshot — waiting out owners still in pre-commit below
//     the cut, and resolving TID stamps whose owners committed below the cut
//     to their real commit stamps.
//  4. Publish atomically: write the blob to name+".tmp", sync, then rename.
//     A crash anywhere in the window leaves either no blob or a complete
//     one, never a torn file under a live name. Recovery finds blobs by
//     listing the storage, and the blob header makes each self-describing,
//     so the log records nothing after the begin block.
//
// Writers never stall for the scan: the write lock is held only for the
// zero-payload begin reservation (microseconds), and the scan itself runs
// concurrently with commits.

// checkpointMagic opens every checkpoint blob.
var checkpointMagic = [4]byte{'E', 'C', 'K', 'P'}

const (
	checkpointVersion    = 4
	checkpointHeaderSize = 4 + 2 + 2 + 8 + 8 + 8 // magic, version, reserved, gen, begin, floor
)

// checkpointName formats a blob name so that lexicographic order equals
// begin-offset order, with the generation as a tie-free audit trail.
func checkpointName(begin, gen uint64) string {
	return fmt.Sprintf("ckpt-%016x-g%04x", begin, gen)
}

// parseCheckpointName recovers (begin, gen) from a blob name. The name must
// round-trip exactly, so a trailing ".tmp" never parses.
func parseCheckpointName(name string) (begin, gen uint64, ok bool) {
	_, err := fmt.Sscanf(name, "ckpt-%016x-g%04x", &begin, &gen)
	return begin, gen, err == nil && checkpointName(begin, gen) == name
}

// CheckpointInfo identifies a published checkpoint.
type CheckpointInfo struct {
	Name  string
	Gen   uint64
	Begin uint64 // begin-record offset; the blob holds all commits below it
	// Floor is the lowest log offset a replay from the checkpoint can read,
	// at or below Begin: the oldest begin stamp of a transaction open at the
	// cut, since a commit above the cut can follow its overflow chain down
	// to there. It is taken at the cut and read back from the blob header.
	Floor uint64
}

// LastCheckpoint returns the newest published checkpoint (from this run or
// recovered from storage), or ok=false when none exists.
func (db *DB) LastCheckpoint() (CheckpointInfo, bool) {
	p := db.lastCkpt.Load()
	if p == nil {
		return CheckpointInfo{}, false
	}
	return *p, true
}

func (db *DB) setLastCheckpoint(ci CheckpointInfo) {
	db.lastCkpt.Store(&ci)
}

// Checkpoint takes a consistent snapshot of every table and secondary index
// and publishes it as a checkpoint blob in the log's storage. It runs
// concurrently with writers; see the protocol comment above.
func (db *DB) Checkpoint() error {
	if db.replica.Load() {
		// A replica checkpoints nothing: its durable state is the primary's
		// log, mirrored by the replication stream.
		return engine.ErrReplicaReadOnly
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// Step 1: pin the GC horizon below the (upcoming) snapshot; zero holds it
	// while the clock is read, as in Txn begin.
	db.ckptPin.Store(0)
	db.ckptPin.Store(db.beginStamp())
	defer db.ckptPin.Store(stampIdle)

	// Step 2: begin record under the exclusive gate — the commit-status
	// barrier that makes the cut clean.
	db.logGate.Lock()
	res, err := db.logMgr().Reserve(0, wal.BlockCheckpointBegin)
	if err != nil {
		db.logGate.Unlock()
		return db.health.Note(err)
	}
	res.Commit()
	begin := res.Offset()
	floor := db.chainFloor(begin)
	db.logGate.Unlock()
	// The begin block is one grain.
	if err := db.waitDurable(db.logMgr(), begin+wal.Grain); err != nil {
		return err
	}
	gen := db.lastCkptGen() + 1
	name := checkpointName(begin, gen)

	// Step 3: the consistent scan. A blob I/O failure is a clean checkpoint
	// failure, not a degrade trigger: unlike log-manager errors it is not
	// sticky, the engine keeps running, and a later checkpoint can succeed.
	ci := CheckpointInfo{Name: name, Gen: gen, Begin: begin, Floor: floor}
	buf := appendCheckpointHeader(nil, ci)
	buf = db.encodeCheckpoint(buf, begin)
	buf = binary.LittleEndian.AppendUint32(buf, wal.Checksum(buf))

	// Step 4: atomic publication.
	if err := db.writeCheckpointBlob(name, buf); err != nil {
		return err
	}
	prev, _ := db.LastCheckpoint()
	db.setLastCheckpoint(ci)
	db.cleanupCheckpoints(name, prev.Name)
	return nil
}

// chainFloor returns the lowest offset below ceiling at which an open
// transaction can have logged an overflow block: its begin stamp. It runs
// under the exclusive logGate; a slot still reading the clock (stamp zero)
// has logged nothing.
func (db *DB) chainFloor(ceiling uint64) uint64 {
	for i := range db.workers {
		if b := db.workers[i].begin.Load(); b != 0 {
			ceiling = min(ceiling, b)
		}
	}
	return ceiling
}

// lastCkptGen returns the highest checkpoint generation in storage or held
// by this engine, 0 if none. Storage counts because a recovery that passed
// over a damaged newest blob adopted an older generation.
func (db *DB) lastCkptGen() uint64 {
	ci, _ := db.LastCheckpoint()
	gen := ci.Gen
	// A failed listing leaves the generation this engine holds; the blob
	// write that follows meets the same storage and reports its failure.
	names, _ := db.cfg.WAL.Storage.List()
	for _, n := range names {
		if _, g, ok := parseCheckpointName(n); ok {
			gen = max(gen, g)
		}
	}
	return gen
}

// appendCheckpointHeader appends the blob header for ci (its name is not
// stored).
func appendCheckpointHeader(buf []byte, ci CheckpointInfo) []byte {
	buf = append(buf, checkpointMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, ci.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, ci.Begin)
	buf = binary.LittleEndian.AppendUint64(buf, ci.Floor)
	return buf
}

// parseCheckpointHeader reads a blob header. The trailer checksum vouches
// for it only in a whole verified image (verifyCheckpointImage), so the
// header is checked on its own terms too: a seed image arrives off the wire.
func parseCheckpointHeader(hdr []byte) (CheckpointInfo, error) {
	if len(hdr) < checkpointHeaderSize || string(hdr[:4]) != string(checkpointMagic[:]) {
		return CheckpointInfo{}, fmt.Errorf("core: checkpoint image has no header")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != checkpointVersion {
		return CheckpointInfo{}, fmt.Errorf("core: checkpoint version %d not supported", v)
	}
	ci := CheckpointInfo{
		Gen:   binary.LittleEndian.Uint64(hdr[8:]),
		Begin: binary.LittleEndian.Uint64(hdr[16:]),
		Floor: binary.LittleEndian.Uint64(hdr[24:]),
	}
	if ci.Floor > ci.Begin {
		return CheckpointInfo{}, fmt.Errorf("core: checkpoint floor %#x above its begin %#x", ci.Floor, ci.Begin)
	}
	return ci, nil
}

// verifyCheckpointImage checks a blob image as published — header, payload,
// FNV-1a trailer — and splits it into its metadata (without a name) and
// payload.
func verifyCheckpointImage(image []byte) (CheckpointInfo, []byte, error) {
	if len(image) < checkpointHeaderSize+4 {
		return CheckpointInfo{}, nil, fmt.Errorf("core: checkpoint image truncated")
	}
	body := image[:len(image)-4]
	if got, want := wal.Checksum(body), binary.LittleEndian.Uint32(image[len(body):]); got != want {
		return CheckpointInfo{}, nil, fmt.Errorf("core: checkpoint checksum mismatch: %#x != %#x", got, want)
	}
	ci, err := parseCheckpointHeader(body)
	if err != nil {
		return CheckpointInfo{}, nil, err
	}
	return ci, body[checkpointHeaderSize:], nil
}

// writeCheckpointBlob persists a checkpoint blob (content plus trailer)
// atomically: temp file → sync → rename. Under a crash the live name either
// does not exist yet or refers to the complete, synced image.
func (db *DB) writeCheckpointBlob(name string, buf []byte) error {
	st := db.cfg.WAL.Storage
	tmp := name + ".tmp"
	f, err := st.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create checkpoint: %w", err)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close checkpoint: %w", err)
	}
	if err := st.Rename(tmp, name); err != nil {
		return fmt.Errorf("core: publish checkpoint: %w", err)
	}
	return nil
}

// cleanupCheckpoints removes stale temp files and every published blob but
// two: the newest, and prev, the checkpoint this engine held before it (one
// it published, seeded or adopted at recovery, so one that can start a
// recovery). The predecessor stays so recovery can fall back if the newest
// suffers bit damage after publication, and TruncateLog keeps the log both
// need. A blob recovery passed over as damaged goes, rather than take the
// predecessor's place. Best-effort: a failure leaves garbage, never damage.
func (db *DB) cleanupCheckpoints(newest, prev string) {
	st := db.cfg.WAL.Storage
	names, err := st.List()
	if err != nil {
		return
	}
	for _, n := range names {
		_, _, published := parseCheckpointName(n)
		tmp := strings.HasSuffix(n, ".tmp") && strings.HasPrefix(n, "ckpt-") && n != newest+".tmp"
		if tmp || published && n != newest && n != prev {
			st.Remove(n)
		}
	}
}

// ErrNoCheckpoint aliases the engine-level sentinel (where it lives so the
// wire layer can map it to a status without importing this package).
//
//ermia:classify fatal an admin/bootstrap precondition, not a transaction outcome; the caller falls back to full-log replication
var ErrNoCheckpoint = engine.ErrNoCheckpoint

// CheckpointChunk is one slice of a checkpoint image plus the metadata a
// replica needs to bootstrap from it. It aliases the engine-level type so
// *DB satisfies engine.Checkpointer.
type CheckpointChunk = engine.CheckpointChunk

// CheckpointChunk serves up to max bytes of the newest checkpoint image
// starting at byte offset off, for the CkptFetch wire frame. The image is
// the raw published file — header, payload, and FNV trailer — so the fetcher
// can store it byte-identical and verify it exactly as recovery would. The
// metadata rides on every chunk: a fetcher that observes the name change
// mid-transfer restarts against the newer image.
func (db *DB) CheckpointChunk(off uint64, max int) (CheckpointChunk, error) {
	ci, ok := db.LastCheckpoint()
	if !ok {
		return CheckpointChunk{}, ErrNoCheckpoint
	}
	log := db.logMgr()
	if log == nil {
		return CheckpointChunk{}, engine.ErrReplicaReadOnly
	}
	start := log.SegmentStartFor(ci.Floor)
	if start == 0 {
		// The segment holding the floor is gone — possible only when the
		// blob outlived truncation bookkeeping across runs. Treat as no
		// usable checkpoint rather than handing out an unsubscribable seed.
		return CheckpointChunk{}, ErrNoCheckpoint
	}
	f, err := db.cfg.WAL.Storage.Open(ci.Name)
	if err != nil {
		return CheckpointChunk{}, fmt.Errorf("core: open checkpoint: %w", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return CheckpointChunk{}, err
	}
	ck := CheckpointChunk{Name: ci.Name, Gen: ci.Gen, Begin: ci.Begin, Start: start, Total: uint64(size)}
	if off >= uint64(size) {
		return ck, nil // past the end: metadata only, empty chunk
	}
	n := uint64(size) - off
	if max > 0 && n > uint64(max) {
		n = uint64(max)
	}
	ck.Data = make([]byte, n)
	if _, err := f.ReadAt(ck.Data, int64(off)); err != nil && err != io.EOF {
		return CheckpointChunk{}, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return ck, nil
}

// SeedCheckpoint loads a verified checkpoint image (raw file bytes, as
// served by CheckpointChunk) into the engine, then persists it into the local
// storage under its canonical blob name — so a restart before catch-up
// recovers from the seed instead of an empty mirror, and an image the loader
// refuses never lands there — and returns its begin offset. The caller — the
// replica bootstrap path — must have quiesced the applier: loading shares
// applyVersion's single-applier contract. Loading over existing state is
// safe; see loadCheckpoint and dropUnseeded.
func (db *DB) SeedCheckpoint(image []byte) (uint64, error) {
	ci, payload, err := verifyCheckpointImage(image)
	if err != nil {
		return 0, err
	}
	begin := ci.Begin
	// A re-seed lands on the state an earlier stream left behind, and skips
	// the log in between: note which records the image holds, so the ones it
	// no longer holds can be dropped.
	var seeded map[tableOID]bool
	for _, t := range db.allTables() {
		if t.idx.Len() > 0 {
			seeded = make(map[tableOID]bool)
			break
		}
	}
	if err := db.loadCheckpoint(payload, begin, seeded); err != nil {
		return 0, err
	}
	if seeded != nil {
		db.dropUnseeded(seeded, begin)
	}
	ci.Name = checkpointName(begin, ci.Gen)
	if err := db.writeCheckpointBlob(ci.Name, image); err != nil {
		return 0, err
	}
	db.setLastCheckpoint(ci)
	db.PublishWatermark(begin)
	return begin, nil
}

// tableOID names one record across tables.
type tableOID struct {
	t   *Table
	oid mvcc.OID
}

// dropUnseeded deletes what a re-seed found standing that the image, cut at
// begin, does not hold: records the primary deleted and reclaimed in the
// stretch of log this replica never saw. Each gets the tombstone the skipped
// delete record would have installed — stamped just below the cut, above
// everything the replica had applied — and leaves through RunGC like any
// other deleted record, so snapshots still open keep what they could see.
//
//ermia:guard-entry runs on the quiesced applier goroutine, which also owns GC on a replica
func (db *DB) dropUnseeded(seeded map[tableOID]bool, begin uint64) {
	for _, t := range db.allTables() {
		t.idx.Scan(nil, nil, nil, func(key []byte, oid mvcc.OID) bool {
			if seeded[tableOID{t, oid}] {
				return true
			}
			if head := t.arr.Head(oid); head != nil && !head.Tombstone && head.CLSN() < begin {
				db.applyVersion(t, oid, nil, key, begin-1, true, false)
			}
			return true
		})
	}
}

// TruncateLog frees the log segments wholly below the lowest Floor among
// the published checkpoints in storage, so that recovery can start from any
// of them, not only the newest. It reads only their headers; a blob whose
// header does not verify holds no log. Nothing is freed before this engine
// has a checkpoint of its own, taken, seeded or recovered. Returns the
// removed file names.
func (db *DB) TruncateLog() ([]string, error) {
	log := db.logMgr()
	if log == nil {
		return nil, engine.ErrReplicaReadOnly
	}
	// Under ckptMu no blob is published or cleaned up meanwhile.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	ci, ok := db.LastCheckpoint()
	if !ok {
		return nil, nil
	}
	st := db.cfg.WAL.Storage
	names, err := st.List()
	if err != nil {
		return nil, fmt.Errorf("core: list checkpoints: %w", err)
	}
	floor := ci.Floor
	for _, n := range names {
		if _, _, ok := parseCheckpointName(n); !ok {
			continue
		}
		if h, err := readCheckpointHeader(st, n); err == nil {
			floor = min(floor, h.Floor)
		}
	}
	return log.Truncate(floor)
}

// readCheckpointHeader reads and checks the header of the blob name.
func readCheckpointHeader(st wal.Storage, name string) (CheckpointInfo, error) {
	f, err := st.Open(name)
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer f.Close()
	hdr := make([]byte, checkpointHeaderSize)
	if n, err := f.ReadAt(hdr, 0); n < len(hdr) {
		return CheckpointInfo{}, fmt.Errorf("core: read checkpoint %s: %v", name, err)
	}
	return parseCheckpointHeader(hdr)
}

// ckptVisible decides whether version v belongs to the checkpoint snapshot
// cut at the begin offset. It is Txn.visible without the own-write case: a
// TID-stamped version whose owner committed below the cut is included under
// its real commit stamp (the owner is mid post-commit), and owners still in
// pre-commit below the cut are waited out — the fix for the lost-commit race
// where a fuzzy scan and the replay each assumed the other would capture a
// transaction straddling the begin record.
func (db *DB) ckptVisible(v *mvcc.Version, cut uint64) (bool, uint64) {
	s := v.CLSN()
	for {
		if !mvcc.IsTID(s) {
			return s < cut, s
		}
		owner := mvcc.AsTID(s)
		status, cstamp, ok := db.tids.Inquire(owner)
		if !ok {
			// The owner released its TID. A committed owner rewrites every
			// write's stamp during post-commit, strictly before releasing, so
			// a stamp that still carries the TID can only belong to an aborted
			// transaction's unlinked version: invisible.
			s = v.CLSN()
			if mvcc.IsTID(s) && mvcc.AsTID(s) == owner {
				return false, 0
			}
			continue
		}
		switch status {
		case txnid.StatusActive:
			// The begin-record barrier guarantees its eventual commit stamp
			// postdates the cut.
			return false, 0
		case txnid.StatusCommitting:
			if cstamp >= cut {
				return false, 0
			}
			// Entered pre-commit below the cut: wait for the outcome,
			// otherwise the blob and the replay could both skip it.
			runtime.Gosched()
			s = v.CLSN()
		case txnid.StatusCommitted:
			return cstamp < cut, cstamp
		case txnid.StatusAborted:
			return false, 0
		default:
			s = v.CLSN()
		}
	}
}

// encodeCheckpoint appends the checkpoint body: the catalogs as create-table
// and create-index records, a version record for every table record visible
// at the cut, and a bind record for every secondary binding.
//
//ermia:guard-entry the scan holds a pinned begin stamp (DB.ckptPin) that lower-bounds the GC horizon for its whole duration, so Prune can never unlink the newest version below the cut; versions unlinked above the cut stay reachable through held pointers
func (db *DB) encodeCheckpoint(buf []byte, cut uint64) []byte {
	tables := db.allTables()
	for _, t := range tables {
		buf = append(buf, encodeCreateTable(t.id, t.name)...)
	}
	db.mu.Lock()
	secs := make([]*SecondaryIndex, 0, len(db.secondaries.byID))
	for _, si := range db.secondaries.byID {
		secs = append(secs, si)
		buf = append(buf, encodeCreateIndex(si.id, si.tbl.id, si.name)...)
	}
	db.mu.Unlock()
	for _, t := range tables {
		t.idx.Scan(nil, nil, nil, func(key []byte, oid mvcc.OID) bool {
			// Newest version visible at the cut.
			v := t.arr.Head(oid)
			var clsn uint64
			for v != nil {
				ok, cs := db.ckptVisible(v, cut)
				if ok {
					clsn = cs
					break
				}
				v = v.Next()
			}
			if v == nil || v.Absent() {
				return true // created after the cut, or an aborted insert
			}
			buf = appendVersion(buf, t.id, uint64(oid), clsn, v.Tombstone, key, v.Data)
			return true
		})
	}
	for _, si := range secs {
		si.idx.Scan(nil, nil, nil, func(skey []byte, oid mvcc.OID) bool {
			buf = appendBind(buf, si.id, uint64(oid), skey)
			return true
		})
	}
	return buf
}

// loadCheckpoint restores a checkpoint body cut at begin
// (verifyCheckpointImage strips header and trailer) into a DB. Loading into a
// non-empty DB is legal: applyVersion's apply-if-newer rule makes it
// idempotent, and tombstones are first-class records, so a replica re-seeding
// from a newer checkpoint converges on the checkpoint state rather than
// resurrecting deleted keys. A non-nil seeded collects the records loaded, for
// the sake of the keys the primary's collector took out before the cut
// (dropUnseeded).
//
// The body arrives off the wire when a replica seeds, so everything a
// checksum cannot vouch for is refused: a commit-block record, an unknown
// table or index, an invalid OID, and a stamp that is a TID or not below
// the cut.
func (db *DB) loadCheckpoint(body []byte, begin uint64, seeded map[tableOID]bool) error {
	return decodeRecords(body, func(r logRecord) error {
		switch r.kind {
		case recCreateTable, recCreateIndex:
			return db.applyCatalog(r)
		case recVersion:
			if mvcc.IsTID(r.clsn) || r.clsn >= begin {
				return fmt.Errorf("core: checkpoint version stamped %#x, not below the cut %#x", r.clsn, begin)
			}
			t, err := db.recordTable(r)
			if err != nil {
				return err
			}
			key, val := cloneKey(r.key), cloneKey(r.val)
			if r.tomb {
				val = key // a tombstone's value is its key
			}
			if seeded != nil {
				seeded[tableOID{t, oidOf(r)}] = true
			}
			db.applyVersion(t, oidOf(r), key, val, r.clsn, r.tomb, true)
		case recBind:
			si := db.secondaryByID(r.index)
			if si == nil {
				return fmt.Errorf("core: checkpoint binding for unknown index %d", r.index)
			}
			if !mvcc.ValidOID(oidOf(r)) {
				return fmt.Errorf("core: checkpoint binding with invalid OID %d", r.oid)
			}
			// The image is the primary's index as of the cut: on a re-seed it
			// overrides whatever binding an earlier stream left.
			rebind(si.idx, cloneKey(r.key), oidOf(r))
			// A binding can outlive its record (the key reclaimed, the OID
			// sealed), so the record itself may be missing above: never hand the
			// OID out again, or the stale binding would resolve to a stranger.
			si.tbl.arr.EnsureAllocated(oidOf(r))
		default:
			return fmt.Errorf("core: log record kind %d in a checkpoint", r.kind)
		}
		return nil
	})
}

// rebind makes key name oid in idx, whatever it named before, and returns the
// OID it took the key from (InvalidOID if the key was free or already oid's).
// It is replay's one way of binding a key, primary or secondary: the log and
// the checkpoint image say what the primary's index held, and the primary may
// have reclaimed a deleted record — and handed its key to a new one, under a
// new OID — before this engine's own collector got to the old record. Only
// the single applier calls it, so the two steps need not be atomic.
func rebind(idx *index.Tree[mvcc.OID], key []byte, oid mvcc.OID) mvcc.OID {
	bound, inserted := idx.InsertIfAbsent(key, oid)
	if inserted || bound == oid {
		return mvcc.InvalidOID
	}
	idx.Replace(key, bound, oid)
	return bound
}

// applyVersion installs a recovered or replicated version at oid if it is
// newer than what the slot already holds; withKey also binds key → oid in
// the index. A tombstone's val is the record's key.
//
// The primary's collector and this engine's run at their own pace, so replay
// meets both orders. Where this engine reclaimed a deleted record first and
// the primary then re-inserted over the tombstone, the record arrives for a
// sealed OID: the install stores over the seal, exactly as the primary kept
// using that OID. Where the primary reclaimed first, a re-insert arrives
// under a fresh OID while key still names the old record (rebind): the old
// chain stays linked behind the new version, so a replica snapshot older than
// the delete still finds what it could see. If the old record is not deleted
// yet — a re-seed skipped the delete record along with the rest of that
// stretch of log — it is deleted now, just below the insert, and collected
// like any other. (Both chains are pruned through their own garbage entries;
// whichever cut comes first serves both, since it only drops what no snapshot
// can see.)
//
// There is never more than one applier: recovery is single-threaded, and a
// replica has exactly one applier goroutine. Concurrent replica readers are
// safe against the Install publication (the version is fully built first),
// and the replica runs GC only from the applier goroutine itself, so an
// installed version can never race a concurrent prune or seal.
//
//ermia:guard-entry single-threaded applier: recovery runs before Open returns, and the replica applier is one goroutine that also owns GC, so no concurrent sweep can reclaim under it
func (db *DB) applyVersion(t *Table, oid mvcc.OID, key, val []byte, clsn uint64, tombstone, withKey bool) {
	t.arr.EnsureAllocated(oid)
	var older *mvcc.Version
	if withKey && len(key) > 0 {
		if old := rebind(t.idx, key, oid); old != mvcc.InvalidOID {
			if older = t.arr.Head(old); older != nil && !older.Tombstone && clsn > 0 {
				db.applyVersion(t, old, nil, key, clsn-1, true, false)
				older = t.arr.Head(old)
			}
		}
	}
	head := t.arr.Head(oid)
	if head != nil && head.CLSN() >= clsn {
		return // checkpoint or earlier replay already delivered it
	}
	if head == nil {
		head = older
	}
	v := mvcc.NewVersion(val, clsn, tombstone)
	v.MaxPstamp(clsn)
	v.SetNext(head)
	t.arr.Install(oid, v)
	if head != nil || tombstone {
		// An overwrite or a delete, queued for RunGC exactly as a commit
		// queues its own.
		db.applied.add(garbageEntry{t, oid, clsn})
	}
}
