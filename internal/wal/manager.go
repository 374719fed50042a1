package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls a log manager.
type Config struct {
	// SegmentSize is the capacity of each log segment file in bytes.
	// Segments may be arbitrarily large and are sized independently of the
	// buffer. Must be a multiple of Grain.
	SegmentSize uint64
	// BufferSize is the size of the central ring buffer. Must be a
	// multiple of Grain and at least 4 blocks.
	BufferSize uint64
	// Storage holds segment files. Defaults to a fresh MemStorage.
	Storage Storage
	// IdleSleep is how long the flusher sleeps when it finds no completed
	// log data. Defaults to 200µs.
	IdleSleep time.Duration
	// SyncFlush disables the background flusher: Flush and WaitDurable
	// callers drive the write/sync pipeline themselves, in their own
	// thread. This is the traditional synchronous-commit mode; it also
	// makes the order of storage operations a pure function of the call
	// sequence, which the crash-point sweep harness relies on for
	// reproducibility.
	SyncFlush bool
}

func (c *Config) setDefaults() {
	if c.SegmentSize == 0 {
		c.SegmentSize = 64 << 20
	}
	if c.BufferSize == 0 {
		c.BufferSize = 4 << 20
	}
	if c.Storage == nil {
		c.Storage = NewMemStorage()
	}
	if c.IdleSleep == 0 {
		c.IdleSleep = 200 * time.Microsecond
	}
}

// ErrTooLarge reports a reservation bigger than the manager can buffer.
//
//ermia:classify fatal an engine-internal sizing bug, never surfaced to transaction callers
var ErrTooLarge = errors.New("wal: log block too large; split into overflow blocks")

// ErrClosed reports use of a closed manager.
//
//ermia:classify fatal lifecycle misuse inside the engine, never surfaced to transaction callers
var ErrClosed = errors.New("wal: log manager closed")

type segment struct {
	num   int // modulo segment number
	start uint64
	end   uint64 // start + capacity, exclusive
	file  File
	name  string
	// zeroed is the offset below which the file is known to be written,
	// with log data or with zero-ahead fill (see writeToFile). Only the
	// flush driver touches it.
	zeroed uint64
}

// zeroAhead is how far past the flush frontier writeToFile keeps a live
// segment file zero-filled. A group commit's sync then overwrites blocks the
// file already has instead of extending the file, which on a journaling file
// system also allocates blocks and logs the new size. A zero header reads as
// unwritten space, so recovery stops at the fill exactly where it stops at
// the file's end.
const zeroAhead = 256 << 10

func (s *segment) meta() SegmentMeta {
	return SegmentMeta{Num: s.num, Start: s.start, End: s.end, Name: s.name}
}

func segmentName(num int, start, end uint64) string {
	return fmt.Sprintf("log-%02x-%016x-%016x", num, start, end)
}

// parseSegmentName recovers a segment's modulo number and range from its
// name. A number past NumSegments names no segment this log writes.
func parseSegmentName(name string) (num int, start, end uint64, ok bool) {
	var n, s, e uint64
	if _, err := fmt.Sscanf(name, "log-%02x-%016x-%016x", &n, &s, &e); err != nil || n >= NumSegments {
		return 0, 0, 0, false
	}
	return int(n), s, e, true
}

// Manager is the centralized log manager. All methods are safe for
// concurrent use.
type Manager struct {
	cfg Config

	offset  atomic.Uint64 // next unallocated logical offset
	cur     atomic.Pointer[segment]
	flushed atomic.Uint64 // offsets below this are written to files
	durable atomic.Uint64 // offsets below this are synced

	segMu    sync.Mutex
	segTable [NumSegments]*segment // modulo number -> live segment
	segs     []*segment            // every segment this run, sorted by start

	buf    []byte
	avail  []atomic.Uint32 // per-grain completion tags
	grains uint64

	// stage is writeToFile's scratch, kept so a flush allocates nothing:
	// the last piece of a write plus its zero-ahead fill, all zero between
	// writes.
	stage []byte

	durMu   sync.Mutex
	durCond *sync.Cond
	syncMu  sync.Mutex // serializes flushOnce in SyncFlush mode
	lifeMu  sync.Mutex // serializes Close and Reattach (flusher lifecycle)

	err    atomic.Pointer[error]
	closed atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	kick   chan struct{} // wakes the flusher before its idle sleep expires

	// Stats counters, exposed for the evaluation's cycle accounting.
	reservations atomic.Uint64
	segOpens     atomic.Uint64
	deadBlocks   atomic.Uint64
}

// Open creates a log manager. If resume is non-nil (from Recover), the
// manager continues the existing log: it reopens the tail segment and
// resumes allocation at the recovered offset.
func Open(cfg Config, resume *RecoverResult) (*Manager, error) {
	cfg.setDefaults()
	if cfg.SegmentSize%Grain != 0 || cfg.BufferSize%Grain != 0 {
		return nil, fmt.Errorf("wal: sizes must be multiples of %d", Grain)
	}
	m := &Manager{
		cfg:    cfg,
		buf:    make([]byte, cfg.BufferSize),
		grains: cfg.BufferSize / Grain,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	m.avail = make([]atomic.Uint32, m.grains)
	m.durCond = sync.NewCond(&m.durMu)

	if resume != nil && len(resume.Segments) == 0 {
		resume = nil // recovering an empty log is a fresh start
	}
	if resume == nil {
		// Fresh log: the first segment starts at offset Grain so that
		// offset 0 stays invalid.
		start := uint64(Grain)
		if _, err := m.addSegment(0, start); err != nil {
			return nil, fmt.Errorf("wal: create first segment: %w", err)
		}
		m.offset.Store(start)
		m.flushed.Store(start)
		m.durable.Store(start)
	} else if err := m.resume(resume); err != nil {
		for _, s := range m.segs {
			s.file.Close()
		}
		return nil, err
	}

	if cfg.SyncFlush {
		close(m.done) // no flusher goroutine; Close must not wait for one
	} else {
		go m.flusher()
	}
	return m, nil
}

// resume continues the log res describes, so that nothing at or past
// res.NextOffset is ever read as a continuation of it:
//   - the segment holding NextOffset is current. If the rest of it holds a
//     valid block (stale, past a damaged one), one durable skip record
//     seals it, as Reattach seals a segment, and allocation resumes at its
//     end, in the next segment. A rest without a valid block can never
//     continue the log, so it is left as it is and recovering a clean log
//     writes nothing;
//   - segment files starting at or past NextOffset are removed, newest
//     first, so a crash part-way leaves a prefix the gap rule accepts. A
//     file among them that holds a valid block makes resume refuse, naming
//     it: every writer of segment files (writeRange, Reattach's fillHoles,
//     a replica's mirror) makes a segment durable before it writes the
//     next, so that block lies past damage, not past a torn tail.
func (m *Manager) resume(res *RecoverResult) error {
	next := res.NextOffset
	var later []SegmentMeta
	for _, sm := range res.Segments {
		if sm.Start >= next {
			later = append(later, sm)
			continue
		}
		f, err := m.cfg.Storage.Open(sm.Name)
		if err != nil {
			return fmt.Errorf("wal: reopen segment %s: %w", sm.Name, err)
		}
		seg := &segment{num: sm.Num, start: sm.Start, end: sm.End, file: f, name: sm.Name, zeroed: next}
		m.segTable[seg.num] = seg
		m.segs = append(m.segs, seg)
		m.cur.Store(seg)
	}
	for _, sm := range later {
		off, found, err := firstValidBlock(m.cfg.Storage, sm, sm.Start)
		if err != nil {
			return err
		}
		if found {
			return fmt.Errorf("wal: segment %s holds a valid block at %#x past the end of the log at %#x",
				sm.Name, off, next)
		}
	}
	cur := m.cur.Load()
	if cur != nil && next < cur.end {
		_, stale, err := firstValidBlock(m.cfg.Storage, cur.meta(), next)
		if err != nil {
			return err
		}
		if stale {
			if err := writeSkipToFile(cur, next, cur.end-next); err != nil {
				return fmt.Errorf("wal: seal %s: %w", cur.name, err)
			}
			if err := cur.file.Sync(); err != nil {
				return fmt.Errorf("wal: seal %s: %w", cur.name, err)
			}
			next = cur.end
		}
	}
	for i := len(later) - 1; i >= 0; i-- {
		if err := m.cfg.Storage.Remove(later[i].Name); err != nil {
			return fmt.Errorf("wal: remove segment %s past the end of the log: %w", later[i].Name, err)
		}
	}
	if cur == nil {
		if _, err := m.addSegment(0, next); err != nil {
			return fmt.Errorf("wal: create first segment: %w", err)
		}
	}
	m.offset.Store(next)
	m.flushed.Store(next)
	m.durable.Store(next)
	return nil
}

// CurrentOffset returns the offset a transaction starting now should use as
// its begin timestamp: every commit block reserved afterwards gets an offset
// at or past this value.
func (m *Manager) CurrentOffset() uint64 { return m.offset.Load() }

// DurableOffset returns the group-commit horizon: blocks with offsets below
// it are durable.
func (m *Manager) DurableOffset() uint64 { return m.durable.Load() }

// Err returns the first storage error encountered by the flusher, if any.
func (m *Manager) Err() error {
	if p := m.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (m *Manager) setErr(err error) {
	if err == nil {
		return
	}
	m.err.CompareAndSwap(nil, &err)
	// Wake the flusher so it notices the poison and parks (see flusher);
	// Reattach relies on the flusher being dead before it mutates state.
	m.kickFlusher()
	// Broadcast under durMu: without the lock a WaitDurable caller that has
	// already checked Err but not yet parked in durCond.Wait would miss this
	// wakeup — and with the flusher dead, no later broadcast would come.
	m.durMu.Lock()
	m.durCond.Broadcast()
	m.durMu.Unlock()
}

// Degraded reports whether the manager carries a sticky storage error but is
// still open — the state Reattach can heal.
func (m *Manager) Degraded() bool {
	return m.Err() != nil && !m.closed.Load()
}

// kickFlusher wakes the flusher immediately instead of waiting out its idle
// sleep. Non-blocking: a pending kick is enough.
func (m *Manager) kickFlusher() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Validate classifies an LSN against the live segment table (Figure 4a).
func (m *Manager) Validate(l LSN) Validity {
	m.segMu.Lock()
	seg := m.segTable[l.Segment()]
	m.segMu.Unlock()
	off := l.Offset()
	if seg == nil || off >= seg.end {
		return TooOld
	}
	if off < seg.start {
		// Either recycled long ago or between segments. Distinguish by
		// searching all known segments.
		if s := m.lookupSegment(off); s != nil {
			if s.num == l.Segment() {
				return TooOld // same modulo number, earlier generation
			}
			return DeadZone
		}
		return DeadZone
	}
	return Valid
}

// lookupSegment returns the segment containing offset off, or nil if off
// falls in a dead zone.
func (m *Manager) lookupSegment(off uint64) *segment {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	// Binary search over segments sorted by start.
	lo, hi := 0, len(m.segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.segs[mid].start <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	s := m.segs[lo-1]
	if off < s.end {
		return s
	}
	return nil
}

// Reservation is a claimed slice of the LSN space and central buffer. Fill
// it with Append and finish with Commit, or discard it with Abort (which
// turns it into a skip record). A reservation must be finished promptly:
// the flusher cannot pass unfinished space.
type Reservation struct {
	m    *Manager
	lsn  LSN
	off  uint64 // block start offset
	size uint64 // padded total size, including header
	typ  uint8
	prev uint64 // previous overflow block offset
	pos  uint64 // next byte to write, absolute offset
	sum  uint32 // running FNV-1a over appended payload
}

// LSN returns the block's log sequence number.
func (r *Reservation) LSN() LSN { return r.lsn }

// Offset returns the block's logical offset — the transaction's commit
// timestamp when the block is a commit block.
func (r *Reservation) Offset() uint64 { return r.off }

// SetPrev links this block to an earlier overflow block.
func (r *Reservation) SetPrev(offset uint64) { r.prev = offset }

// MaxPayload returns the largest payload Reserve accepts for this manager.
func (m *Manager) MaxPayload() int {
	max := m.cfg.BufferSize / 4
	if s := m.cfg.SegmentSize / 4; s < max {
		max = s
	}
	return int(max - headerSize)
}

// Reserve claims LSN space and buffer room for a block with the given
// payload size. This is the single global synchronization point of a
// transaction's lifetime: one atomic fetch-and-add on the shared log offset,
// except in the rare segment-boundary corner cases of §3.3.
func (m *Manager) Reserve(payload int, typ uint8) (Reservation, error) {
	if m.closed.Load() {
		return Reservation{}, ErrClosed
	}
	if err := m.Err(); err != nil {
		// Fail fast before claiming LSN space: a claim made after the
		// manager is poisoned could never be filled or flushed, and would
		// leave one more hole for Reattach to seal over.
		return Reservation{}, err
	}
	if payload > m.MaxPayload() {
		return Reservation{}, ErrTooLarge
	}
	total := pad(headerSize + uint64(payload))
	m.reservations.Add(1)
	for {
		off := m.offset.Add(total) - total
		end := off + total
	resolve:
		for {
			if err := m.Err(); err != nil {
				return Reservation{}, err
			}
			seg := m.cur.Load()
			switch {
			case off >= seg.start && end <= seg.end:
				// Common case: the block fits in the current segment.
				if err := m.waitBuffer(end); err != nil {
					return Reservation{}, err
				}
				return Reservation{m: m, lsn: MakeLSN(off, seg.num), off: off,
					size: total, typ: typ, pos: off + headerSize, sum: fnvInit}, nil

			case off < seg.start:
				// The claim predates the current segment: dead zone.
				if err := m.waitBuffer(end); err != nil {
					return Reservation{}, err
				}
				m.fillDead(off, total)
				break resolve // retry with a fresh claim

			case off < seg.end:
				// Straddles the segment end: close the segment with a
				// skip record and discard the excess (Figure 4b).
				if err := m.waitBuffer(end); err != nil {
					return Reservation{}, err
				}
				m.fillSkip(off, seg.end-off)
				if end > seg.end {
					m.fillDead(seg.end, end-seg.end)
				}
				break resolve

			default: // off >= seg.end: compete to open the next segment
				if m.openNext(seg, off) {
					continue // won: current segment now starts at off
				}
				// Lost the race; re-inspect the new current segment.
			}
		}
	}
}

// openNext opens the next modulo segment starting at offset start. It
// returns false if another thread got there first.
func (m *Manager) openNext(old *segment, start uint64) bool {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	if m.cur.Load() != old {
		return false
	}
	if _, err := m.addSegment((old.num+1)%NumSegments, start); err != nil {
		m.setErr(fmt.Errorf("wal: open segment: %w", err))
		return false
	}
	m.segOpens.Add(1)
	return true
}

// addSegment creates the file of segment num starting at start and makes
// the segment current. The modulo slot may recycle an older generation;
// that generation stays in m.segs for offset lookups but loses its table
// entry. The caller holds segMu or has the manager to itself.
func (m *Manager) addSegment(num int, start uint64) (*segment, error) {
	seg := &segment{num: num, start: start, end: start + m.cfg.SegmentSize}
	seg.name = segmentName(num, seg.start, seg.end)
	f, err := m.cfg.Storage.Create(seg.name)
	if err != nil {
		return nil, err
	}
	seg.file = f
	m.segTable[num] = seg
	m.segs = append(m.segs, seg)
	m.cur.Store(seg)
	return seg, nil
}

// waitBuffer blocks until the ring has room for offsets below end.
func (m *Manager) waitBuffer(end uint64) error {
	for i := 0; ; i++ {
		if end-m.flushed.Load() <= m.cfg.BufferSize {
			return nil
		}
		if err := m.Err(); err != nil {
			return err
		}
		if m.closed.Load() {
			return ErrClosed
		}
		if m.cfg.SyncFlush {
			// No flusher to kick: make room ourselves.
			m.syncMu.Lock()
			_, err := m.flushOnce()
			m.syncMu.Unlock()
			if err != nil {
				m.setErr(err)
				return err
			}
			continue
		}
		m.kickFlusher() // full ring: flushing is the only way forward
		if i%64 == 63 {
			time.Sleep(10 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// ringAt copies p into the ring buffer at absolute offset off.
func (m *Manager) ringAt(off uint64, p []byte) {
	b := m.cfg.BufferSize
	pos := off % b
	n := copy(m.buf[pos:], p)
	if n < len(p) {
		copy(m.buf, p[n:])
	}
}

// writeHeader fills a block header at absolute offset off.
func (m *Manager) writeHeader(off, size uint64, typ uint8, prev uint64, plen, sum uint32) {
	var h [headerSize]byte
	putHeader(&h, typ, off, size, prev, plen, sum)
	m.ringAt(off, h[:])
}

// markGrains publishes completion tags for [off, off+size).
func (m *Manager) markGrains(off, size uint64) {
	b := m.cfg.BufferSize
	for o := off; o < off+size; o += Grain {
		g := (o / Grain) % m.grains
		m.avail[g].Store(uint32(o/b) + 1)
	}
}

// fillDead fills a claim that maps to no disk location.
func (m *Manager) fillDead(off, size uint64) {
	m.deadBlocks.Add(1)
	m.writeHeader(off, size, blockDead, 0, 0, fnvInit)
	m.markGrains(off, size)
}

// fillSkip writes and publishes a skip record over [off, off+size): the
// record that closes a segment, or an aborted reservation.
func (m *Manager) fillSkip(off, size uint64) {
	m.writeHeader(off, size, BlockSkip, 0, 0, fnvInit)
	m.markGrains(off, size)
}

// Append adds payload bytes to the reservation.
func (r *Reservation) Append(p []byte) {
	if r.pos+uint64(len(p)) > r.off+r.size {
		panic("wal: reservation overflow")
	}
	r.m.ringAt(r.pos, p)
	r.sum = fnvAdd(r.sum, p)
	r.pos += uint64(len(p))
}

// Commit finishes the block: writes the header and publishes completion.
// After Commit the block's offset is a valid, totally ordered timestamp that
// will become durable once the flusher passes it.
func (r *Reservation) Commit() {
	plen := uint32(r.pos - r.off - headerSize)
	r.m.writeHeader(r.off, r.size, r.typ, r.prev, plen, r.sum)
	r.m.markGrains(r.off, r.size)
}

// Abort turns the reservation into a skip record, as an aborted transaction
// does with its already-claimed LSN space.
func (r *Reservation) Abort() { r.m.fillSkip(r.off, r.size) }

// WaitDurable blocks until every block with offset below off is durable.
func (m *Manager) WaitDurable(off uint64) error {
	if m.cfg.SyncFlush {
		return m.syncTo(off)
	}
	m.kickFlusher()
	m.durMu.Lock()
	defer m.durMu.Unlock()
	for m.durable.Load() < off {
		if err := m.Err(); err != nil {
			return err
		}
		if m.closed.Load() {
			return ErrClosed
		}
		m.durCond.Wait()
	}
	return nil
}

// syncTo drives the flush pipeline from the caller's thread until every
// offset below off is durable (SyncFlush mode).
func (m *Manager) syncTo(off uint64) error {
	for m.durable.Load() < off {
		if err := m.Err(); err != nil {
			return err
		}
		if m.closed.Load() {
			return ErrClosed
		}
		m.syncMu.Lock()
		n, err := m.flushOnce()
		m.syncMu.Unlock()
		if err != nil {
			m.setErr(err)
			return err
		}
		if n == 0 && m.durable.Load() < off {
			// Blocked on an unfinished reservation ahead of off; yield
			// until its owner completes it.
			runtime.Gosched()
		}
	}
	return nil
}

// flusher is the background goroutine that writes completed buffer regions
// to segment files in offset order and advances the durable horizon.
func (m *Manager) flusher() {
	defer close(m.done)
	stopping := false
	idle := time.NewTimer(m.cfg.IdleSleep)
	defer idle.Stop()
	for {
		if m.Err() != nil {
			// Poisoned by anyone (our own flushOnce, a failed segment open
			// in Reserve, a SyncFlush driver): park. Reattach waits for this
			// exit before it rebuilds state and spawns a fresh flusher.
			return
		}
		n, err := m.flushOnce()
		if err != nil {
			m.setErr(err)
			return
		}
		if n == 0 {
			if stopping {
				return
			}
			idle.Reset(m.cfg.IdleSleep)
			select {
			case <-m.stop:
				stopping = true // drain what is completed, chunk by chunk
			case <-m.kick:
			case <-idle.C:
				continue
			}
			if !idle.Stop() {
				select { // a tick that raced the wakeup
				case <-idle.C:
				default:
				}
			}
		}
	}
}

// flushOnce writes one contiguous run of completed grains. It returns how
// many bytes it flushed.
func (m *Manager) flushOnce() (int, error) {
	start := m.flushed.Load()
	limit := m.offset.Load()
	b := m.cfg.BufferSize
	cur := start
	for cur < limit {
		g := (cur / Grain) % m.grains
		if m.avail[g].Load() != uint32(cur/b)+1 {
			break
		}
		cur += Grain
		if cur-start >= b/2 {
			break // flush in bounded chunks
		}
	}
	if cur == start {
		return 0, nil
	}
	if err := m.writeRange(start, cur); err != nil {
		return 0, err
	}
	m.flushed.Store(cur)
	m.durMu.Lock()
	m.durable.Store(cur)
	m.durMu.Unlock()
	m.durCond.Broadcast()
	return int(cur - start), nil
}

// writeRange writes buffer offsets [start, end) to their segment files,
// skipping dead zones, and syncs each segment's file before it writes the
// next one: a segment then holds a byte only once every segment before it
// is durable up to that point, so after any crash a valid block in a later
// segment file means the earlier ones are whole (see resume).
func (m *Manager) writeRange(start, end uint64) error {
	for start < end {
		seg := m.lookupSegment(start)
		if seg == nil {
			// Dead zone: advance to the start of the next segment.
			next := m.nextSegmentStart(start)
			if next == 0 || next > end {
				next = end
			}
			start = next
			continue
		}
		chunkEnd := end
		if seg.end < chunkEnd {
			chunkEnd = seg.end
		}
		if err := m.writeToFile(seg, start, chunkEnd); err != nil {
			return err
		}
		if err := seg.file.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		start = chunkEnd
	}
	return nil
}

// nextSegmentStart returns the start of the first segment beginning after
// off, or 0 if none exists yet.
func (m *Manager) nextSegmentStart(off uint64) uint64 {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	for _, s := range m.segs {
		if s.start > off {
			return s.start
		}
	}
	return 0
}

// writeToFile copies ring bytes [start, end) into seg's file. A short write
// that passes seg.zeroed also carries zeros past end, in the same WriteAt:
// the last piece is staged with its fill, so a flush issues one write per
// ring piece whether or not it extends the file. The fill starts at end,
// never below it, so it lands on no block a flush has written. Only a
// write under zeroAhead/16 (a flush's part in one segment, over all its
// ring pieces) carries fill, up to zeroAhead past its end or to the
// segment's end. A larger flush's sync is dominated by its own data, and
// filling behind it would write each of its bytes twice; it extends the
// file bare, and the next short flush carries the fill. Only the last piece
// is staged, so the copy stays under zeroAhead/16.
func (m *Manager) writeToFile(seg *segment, start, end uint64) error {
	b := m.cfg.BufferSize
	short := end-start < zeroAhead/16
	for start < end {
		pos := start % b
		n := end - start
		if b-pos < n {
			n = b - pos
		}
		p := m.buf[pos : pos+n]
		if short && start+n == end && end > seg.zeroed && end < seg.end {
			if m.stage == nil {
				m.stage = make([]byte, zeroAhead+zeroAhead/16)
			}
			copy(m.stage, p)
			p = m.stage[:min(seg.end, end+zeroAhead)-start]
		}
		_, err := seg.file.WriteAt(p, int64(start-seg.start))
		if len(p) > int(n) {
			clear(m.stage[:n]) // the stage is all zero between writes
		}
		if err != nil {
			return fmt.Errorf("wal: write segment %s: %w", seg.name, err)
		}
		seg.zeroed = max(seg.zeroed, start+uint64(len(p)))
		start += n
	}
	return nil
}

// Flush blocks until everything completed so far is durable.
func (m *Manager) Flush() error {
	return m.WaitDurable(m.offset.Load())
}

// Close drains completed log data and stops the flusher. Unfinished
// reservations are abandoned.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	// lifeMu orders Close against a concurrent Reattach: whichever wins, the
	// other observes a consistent flusher/done pair.
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	close(m.stop)
	<-m.done
	if m.cfg.SyncFlush {
		// Final drain happens here rather than in a flusher goroutine.
		for {
			m.syncMu.Lock()
			n, err := m.flushOnce()
			m.syncMu.Unlock()
			if err != nil {
				m.setErr(err)
				break
			}
			if n == 0 {
				break
			}
		}
	}
	m.durMu.Lock()
	m.durCond.Broadcast()
	m.durMu.Unlock()
	err := m.Err()
	m.segMu.Lock()
	for _, s := range m.segs {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	m.segMu.Unlock()
	return err
}

// Truncate removes segment files that lie entirely below offset, freeing
// the space a checkpoint made redundant (§3.7: records graduate out of the
// log once a checkpoint covers them). The current segment and anything at
// or past the durable horizon are never touched. It returns the names of
// the removed files.
func (m *Manager) Truncate(offset uint64) ([]string, error) {
	if d := m.durable.Load(); offset > d {
		offset = d
	}
	m.segMu.Lock()
	cur := m.cur.Load()
	var victims []*segment
	kept := m.segs[:0]
	for _, s := range m.segs {
		if s != cur && s.end <= offset {
			victims = append(victims, s)
		} else {
			kept = append(kept, s)
		}
	}
	m.segs = kept
	for _, s := range victims {
		if m.segTable[s.num] == s {
			m.segTable[s.num] = nil
		}
	}
	m.segMu.Unlock()

	var removed []string
	for _, s := range victims {
		s.file.Close()
		if err := m.cfg.Storage.Remove(s.name); err != nil {
			return removed, fmt.Errorf("wal: truncate %s: %w", s.name, err)
		}
		removed = append(removed, s.name)
	}
	return removed, nil
}

// SegmentStartFor returns the start offset of the live segment containing
// off — or of the next one, when off lies in a dead zone — and 0 when off
// lies below every live segment or past them all. A replica seeding from a
// checkpoint subscribes from the start of the segment holding the
// checkpoint's floor — not the offset itself — so its mirrored segment
// files are complete from their first byte and a later local recovery scan
// can read them.
func (m *Manager) SegmentStartFor(off uint64) uint64 {
	if s := m.lookupSegment(off); s != nil {
		return s.start
	}
	if off < m.firstSegmentStart() {
		return 0
	}
	return m.nextSegmentStart(off)
}

// Stats reports internal counters.
type Stats struct {
	Reservations uint64 // total Reserve calls
	SegmentOpens uint64 // segment files opened after the first
	DeadBlocks   uint64 // claims that fell into dead zones
	Flushed      uint64 // flushed offset horizon
	Durable      uint64 // durable offset horizon
}

// Stats returns a snapshot of internal counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Reservations: m.reservations.Load(),
		SegmentOpens: m.segOpens.Load(),
		DeadBlocks:   m.deadBlocks.Load(),
		Flushed:      m.flushed.Load(),
		Durable:      m.durable.Load(),
	}
}
