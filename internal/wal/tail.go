package wal

import (
	"errors"
	"fmt"
)

// This file is the primary-side half of log shipping: a Tail is a cursor
// over the committed, durable prefix of a live Manager's log. The log is the
// authoritative copy of the database — every committed version is one record
// in a contiguous, LSN-ordered stream — so replication is exactly "read the
// log below the durable horizon and send the bytes". A Tail never observes
// in-flight reservations (it stops at the durable horizon) and never blocks
// writers (it reads segment files, not the ring buffer).
//
// The LSN space is not contiguous: dead zones between segments map to no
// disk location, and skip records close segments and absorb aborts. A Tail
// skips dead zones silently but DOES yield skip records, because a replica
// mirroring the log byte-for-byte needs the segment-closing skips for its
// own recovery scan to see closed segments rather than holes.

// ErrTailTruncated reports a Tail positioned below the oldest live segment:
// a checkpoint truncated the records away, so the stream cannot resume from
// here and the subscriber must re-seed from a full copy.
//
//ermia:classify fatal the requested log suffix no longer exists; retrying the same position cannot succeed, the replica must re-seed
var ErrTailTruncated = errors.New("wal: tail position truncated from log")

// Tail is a committed-block cursor over a live Manager. It is
// single-goroutine; one shipper goroutine owns each Tail.
type Tail struct {
	m   *Manager
	pos uint64
	buf []byte
}

// TailFrom returns a Tail positioned at logical offset off. Positions inside
// dead zones are legal: Next skips forward to the next segment.
func (m *Manager) TailFrom(off uint64) *Tail {
	return &Tail{m: m, pos: off}
}

// Pos returns the cursor: the offset the next yielded block starts at (or
// past, if dead zones intervene).
func (t *Tail) Pos() uint64 { return t.pos }

// firstSegmentStart returns the start offset of the oldest live segment, or
// 0 when no segments exist.
func (m *Manager) firstSegmentStart() uint64 {
	m.segMu.Lock()
	defer m.segMu.Unlock()
	if len(m.segs) == 0 {
		return 0
	}
	return m.segs[0].start
}

// Next reads blocks at the cursor until the durable horizon, maxBytes of
// block space, or the flushed tail is reached, returning the blocks and the
// metadata of every segment they live in. An empty batch means the cursor
// has caught up: what lies at it is unwritten, or ends past the horizon.
// Callers poll or wait for durability progress. A block below the horizon
// whose header or checksum is wrong, or that claims to end past the log's
// reserved end, is an error naming its offset and segment. Payloads alias
// the Tail's scratch buffer and are valid until the next call.
func (t *Tail) Next(maxBytes int) ([]Block, []SegmentMeta, error) {
	durable := t.m.durable.Load()
	// Loaded after the horizon: every block that starts below it was
	// reserved whole by then, so none ends past this.
	reserved := t.m.offset.Load()
	var blocks []Block
	var segs []SegmentMeta
	var r *segReader
	t.buf = t.buf[:0]
	used := 0
	for t.pos < durable && (used == 0 || used < maxBytes) {
		seg := t.m.lookupSegment(t.pos)
		if seg == nil {
			if first := t.m.firstSegmentStart(); first == 0 || (t.pos < first && first > Grain) {
				// Below the oldest live segment. A fresh log's first segment
				// starts at Grain (offset 0 is invalid, nothing was ever
				// there); anything later means a checkpoint truncated the
				// requested suffix away.
				return blocks, segs, fmt.Errorf("%w: offset %#x below oldest segment %#x",
					ErrTailTruncated, t.pos, first)
			}
			// Dead zone between segments: skip to the next segment start.
			next := t.m.nextSegmentStart(t.pos)
			if next == 0 || next <= t.pos {
				break // the next segment is not open yet
			}
			t.pos = next
			continue
		}
		var b Block
		var err error
		if r == nil || r.sm.Name != seg.name {
			r, err = newSegReader(seg.meta(), seg.file, durable)
			if err == nil {
				r.end = min(r.end, reserved)
			}
		}
		if err == nil {
			b, err = r.block(t.pos, &t.buf)
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) && t.m.lookupSegment(t.pos) != seg {
				continue // the segment was truncated under us; re-resolve
			}
			return blocks, segs, err
		}
		if b.Size == 0 {
			break // unwritten yet (the horizon raced the file), or not yet durable
		}
		if len(segs) == 0 || segs[len(segs)-1].Name != seg.name {
			segs = append(segs, r.sm)
		}
		blocks = append(blocks, b)
		t.pos += b.Size
		used += int(b.Size)
	}
	return blocks, segs, nil
}

// NewSegmentMeta describes the segment with the given modulo number and
// offset range under the file name the Manager gives it, so a replica can
// mirror the primary's segment files under identical names.
func NewSegmentMeta(num int, start, end uint64) SegmentMeta {
	return SegmentMeta{Num: num, Start: start, End: end, Name: segmentName(num, start, end)}
}

// AppendBlock appends the block's header, with the payload checksum
// recomputed, and its payload. A replica writing them at the block's offset
// reproduces the primary's segment bytes (padding is left unwritten,
// exactly as the primary's flusher may leave it past the payload).
func AppendBlock(dst []byte, typ uint8, off, size, prev uint64, payload []byte) []byte {
	var h [headerSize]byte
	putHeader(&h, typ, off, size, prev, uint32(len(payload)), fnvAdd(fnvInit, payload))
	return append(append(dst, h[:]...), payload...)
}

// BlockHeaderSize is the fixed on-disk block header size, exported for the
// replication layer's size accounting.
const BlockHeaderSize = headerSize
