package wal

import (
	"errors"
	"fmt"
)

// ErrNotDegraded reports a Reattach call on a manager with no sticky error.
//
//ermia:classify fatal an admin-operation precondition failure, not a transaction outcome
var ErrNotDegraded = errors.New("wal: manager is not degraded")

// ReattachReport accounts what a Reattach did with the log data that was in
// flight when the device failed.
type ReattachReport struct {
	// Durable is the group-commit horizon at re-attach time. Every commit
	// acknowledged before the fault lies below it and is preserved.
	Durable uint64
	// Replayed is how many bytes of completed-but-not-durable log data were
	// re-written from the ring buffer and made durable. Transactions that
	// committed in memory during the fault window land here.
	Replayed uint64
	// HolesFilled counts abandoned reservations (claims whose owners failed
	// mid-commit when the device died) converted into skip records so the
	// recovery scan can walk past them.
	HolesFilled int
	// Lost is how many bytes of completed-but-never-durable log data had to
	// be abandoned because the ring buffer wrapped past them. Zero in the
	// common case; when non-zero, transactions that committed in memory but
	// were never acknowledged durable are missing from the log, and LostFrom
	// marks where the divergence starts.
	Lost     uint64
	LostFrom uint64
	// Sealed is the poisoned segment closed by the re-attach; NewSegment is
	// the fresh tail segment subsequent traffic writes to.
	Sealed     string
	NewSegment string
	// ResumeOffset is the allocation offset after re-attach: the first LSN
	// offset of post-heal traffic.
	ResumeOffset uint64
}

// Reattach heals a poisoned manager once its storage device works again (or
// has been replaced by one holding the same durable segment files). It:
//
//  1. waits for the dead flusher, reopens every live segment file on the
//     new storage,
//  2. replays still-buffered committed work: every completed log block
//     between the durable horizon and the allocation offset is re-written
//     from the ring buffer at its original position, so transactions that
//     committed in memory during the fault window lose nothing,
//  3. fills abandoned reservations (claims whose owners errored out
//     mid-commit) with skip records, exactly as an aborted transaction
//     would have,
//  4. seals the poisoned segment with a segment-closing skip record and
//     rotates to a fresh segment, so post-heal traffic never touches the
//     suspect region of the device,
//  5. clears the sticky error and restarts the flusher.
//
// If the ring buffer has wrapped past un-durable data (possible only with
// the background flusher, when sync stalled long before the fault), that
// region cannot be replayed: the log is sealed at the last durable block
// boundary instead and the loss is reported in the returned report. Commits
// acknowledged by WaitDurable are never lost in either path.
//
// The caller must quiesce log writers first: no Reserve/Append/Commit may
// be in flight. The engine layers guarantee this via their health gates.
// Passing a nil Storage re-attaches to the current (healed) device.
func (m *Manager) Reattach(st Storage) (*ReattachReport, error) {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if m.Err() == nil {
		return nil, ErrNotDegraded
	}

	// The flusher parks itself once the error is sticky; wait it out so we
	// are the only thread touching segments and horizons. SyncFlush mode has
	// no flusher (done is closed at Open) but its drivers hold syncMu.
	m.kickFlusher()
	<-m.done
	m.syncMu.Lock()
	defer m.syncMu.Unlock()

	durable := m.durable.Load()
	offset := m.offset.Load()

	if st != nil {
		m.cfg.Storage = st
	}
	if err := m.reopenSegments(durable); err != nil {
		return nil, err
	}

	rep := &ReattachReport{Durable: durable}
	// The ring holds the last BufferSize bytes of claimed LSN space; a byte
	// at p survives iff no later claim wrapped onto it, i.e. p >= offset-B.
	if offset-durable <= m.cfg.BufferSize {
		if err := m.replayRing(durable, offset, rep); err != nil {
			return nil, err
		}
	} else {
		if err := m.sealLossy(durable, offset, rep); err != nil {
			return nil, err
		}
		offset = rep.LostFrom // seal point: everything above is abandoned
	}

	if err := m.rotateSealed(offset, rep); err != nil {
		return nil, err
	}

	// Everything rewritten and sealed: force it to the medium before
	// declaring the manager healthy again.
	if err := m.syncAll(); err != nil {
		return nil, fmt.Errorf("wal: reattach sync: %w", err)
	}

	r := rep.ResumeOffset
	m.offset.Store(r)
	m.flushed.Store(r)
	m.durMu.Lock()
	m.durable.Store(r)
	m.durMu.Unlock()
	m.durCond.Broadcast()

	m.err.Store(nil)
	if !m.cfg.SyncFlush {
		m.done = make(chan struct{})
		go m.flusher()
	}
	return rep, nil
}

// reopenSegments opens every live segment file on the (possibly new)
// storage, replacing the dead handles. Segments that hold durable bytes must
// exist; a segment wholly above the durable horizon may be recreated empty —
// its content is about to be rewritten from the ring anyway.
func (m *Manager) reopenSegments(durable uint64) error {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	for _, s := range m.segs {
		f, err := m.cfg.Storage.Open(s.name)
		if err != nil {
			if s.start < durable {
				return fmt.Errorf("wal: reattach: segment %s holds durable data but is missing: %w", s.name, err)
			}
			if f, err = m.cfg.Storage.Create(s.name); err != nil {
				return fmt.Errorf("wal: reattach: recreate segment %s: %w", s.name, err)
			}
			s.zeroed = s.start
		}
		if s.file != nil {
			s.file.Close()
		}
		s.file = f
	}
	return nil
}

// replayRing re-writes [durable, offset) from the ring buffer: completed
// runs go to their segment files verbatim, abandoned claims become skip
// records. Dead zones are skipped (they map to no disk location).
func (m *Manager) replayRing(durable, offset uint64, rep *ReattachReport) error {
	b := m.cfg.BufferSize
	cur := durable
	for cur < offset {
		complete := m.grainComplete(cur, b)
		end := cur + Grain
		for end < offset && m.grainComplete(end, b) == complete {
			end += Grain
		}
		if complete {
			if err := m.writeRange(cur, end); err != nil {
				return fmt.Errorf("wal: reattach replay: %w", err)
			}
			rep.Replayed += end - cur
		} else {
			n, err := m.fillHoles(cur, end)
			if err != nil {
				return err
			}
			rep.HolesFilled += n
		}
		cur = end
	}
	return nil
}

// grainComplete reports whether the grain at absolute offset off carries the
// completion tag of the current ring wrap.
func (m *Manager) grainComplete(off, bufSize uint64) bool {
	g := (off / Grain) % m.grains
	return m.avail[g].Load() == uint32(off/bufSize)+1
}

// fillHoles writes skip records over the abandoned claim range [lo, hi),
// one per segment intersection, directly to the segment files, and syncs
// each file before replay moves on, in the order writeRange keeps. It
// returns how many skip records it wrote.
func (m *Manager) fillHoles(lo, hi uint64) (int, error) {
	n := 0
	for lo < hi {
		seg := m.lookupSegment(lo)
		if seg == nil {
			next := m.nextSegmentStart(lo)
			if next == 0 || next > hi {
				return n, nil // rest of the hole is dead zone
			}
			lo = next
			continue
		}
		end := hi
		if seg.end < end {
			end = seg.end
		}
		if err := writeSkipToFile(seg, lo, end-lo); err != nil {
			return n, fmt.Errorf("wal: reattach fill hole: %w", err)
		}
		if err := seg.file.Sync(); err != nil {
			return n, fmt.Errorf("wal: reattach fill hole: %w", err)
		}
		n++
		lo = end
	}
	return n, nil
}

// writeSkipToFile writes skip-record headers covering [off, off+size)
// directly into seg's file, bypassing the ring. Oversized ranges are split
// so each record's size fits the 32-bit header field.
func writeSkipToFile(seg *segment, off, size uint64) error {
	const maxSkip = uint64(1) << 30 // Grain-aligned, well under uint32 range
	for size > 0 {
		n := size
		if n > maxSkip {
			n = maxSkip
		}
		var h [headerSize]byte
		putHeader(&h, BlockSkip, off, n, 0, 0, fnvInit)
		if _, err := seg.file.WriteAt(h[:], int64(off-seg.start)); err != nil {
			return err
		}
		off += n
		size -= n
	}
	return nil
}

// sealLossy handles the ring-wrapped case: [durable, offset) cannot be
// replayed, so the log is sealed at the last whole block at or below the
// durable horizon and everything above is abandoned. Segments wholly above
// the seal point carry nothing durable and are dropped.
func (m *Manager) sealLossy(durable, offset uint64, rep *ReattachReport) error {
	seg := m.lookupSegment(durable)
	if seg == nil {
		// durable sits in a dead zone between segments: the last segment
		// below it is fully flushed; seal at its end.
		m.segMu.Lock()
		for _, s := range m.segs {
			if s.end <= durable {
				seg = s
			}
		}
		m.segMu.Unlock()
		if seg == nil {
			return fmt.Errorf("wal: reattach: no segment at or below durable offset %#x", durable)
		}
	}
	sealOff, err := lastBlockBoundary(seg, durable)
	if err != nil {
		return err
	}
	rep.Lost = offset - sealOff
	rep.LostFrom = sealOff

	// Drop segments that start at or past the seal segment's end: nothing
	// durable lives there, and leaving them would let recovery read
	// abandoned bytes.
	m.segMu.Lock()
	kept := m.segs[:0]
	var victims []*segment
	for _, s := range m.segs {
		if s.start >= seg.end {
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
	m.cur.Store(seg)
	m.segMu.Unlock()
	for _, s := range victims {
		s.file.Close()
		m.cfg.Storage.Remove(s.name) // best-effort: abandoned bytes only
	}
	return nil
}

// lastBlockBoundary walks seg's blocks from its start and returns the
// largest block boundary at or below limit. The durable prefix is a valid
// block sequence by construction, so the walk ends at the first block that
// would cross limit.
func lastBlockBoundary(seg *segment, limit uint64) (uint64, error) {
	r, err := newSegReader(seg.meta(), seg.file, limit)
	if err != nil {
		return 0, err
	}
	off := seg.start
	var buf []byte
	for off < limit {
		b, err := r.block(off, &buf)
		if err != nil || b.Size == 0 {
			break
		}
		off += b.Size
		buf = buf[:0]
	}
	return off, nil
}

// rotateSealed closes the current segment with a skip record from sealFrom
// to its end and opens a fresh segment for post-heal traffic.
func (m *Manager) rotateSealed(sealFrom uint64, rep *ReattachReport) error {
	old := m.cur.Load()
	sealStart := sealFrom
	if sealStart < old.start {
		sealStart = old.start
	}
	if sealStart < old.end {
		if err := writeSkipToFile(old, sealStart, old.end-sealStart); err != nil {
			return fmt.Errorf("wal: reattach seal %s: %w", old.name, err)
		}
	}
	rep.Sealed = old.name

	m.segMu.Lock()
	seg, err := m.addSegment((old.num+1)%NumSegments, max(sealFrom, old.end))
	m.segMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: reattach open segment: %w", err)
	}
	m.segOpens.Add(1)
	rep.NewSegment = seg.name
	rep.ResumeOffset = seg.start
	return nil
}

// syncAll syncs every live segment file.
func (m *Manager) syncAll() error {
	m.segMu.Lock()
	files := make([]File, 0, len(m.segs))
	for _, s := range m.segs {
		files = append(files, s.file)
	}
	m.segMu.Unlock()
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}
