package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
)

// SegmentMeta describes a segment file discovered during recovery. The
// segment table can be reconstructed from file names alone, even if the
// current system's segment size differs from that of the existing segments.
type SegmentMeta struct {
	Num   int
	Start uint64
	End   uint64
	Name  string
}

// Block is a decoded log block, as a scan or a Tail yields it.
type Block struct {
	LSN     LSN
	Type    uint8
	Size    uint64 // padded size, header included
	Prev    uint64 // previous overflow block offset, or 0
	Payload []byte // aliases the scan buffer; copy to retain
}

// RecoverResult summarizes a completed scan: pass it to Open to resume the
// log, and use NextOffset as the recovery horizon.
type RecoverResult struct {
	// Segments are every segment file in start-offset order, read or not. A
	// modulo number can appear more than once: rotation reuses the 16
	// numbers without deleting the files they leave behind (only truncation
	// deletes), so a log that outgrows NumSegments segments has several
	// generations per number, every one of them holding committed data.
	// Their offset ranges are disjoint by construction — ranges come from
	// the global monotonic offset — so start order is replay order.
	Segments []SegmentMeta
	// NextOffset is the offset just past the last valid block: the log is
	// truncated at the first hole without losing committed work.
	NextOffset uint64
}

// Segments lists the segment files in st in start-offset order.
func Segments(st Storage) ([]SegmentMeta, error) {
	names, err := st.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var metas []SegmentMeta
	for _, n := range names {
		if num, start, end, ok := parseSegmentName(n); ok {
			metas = append(metas, SegmentMeta{Num: num, Start: start, End: end, Name: n})
		}
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Start < metas[j].Start })
	return metas, nil
}

// Recover scans the log in st from offset from, a block boundary (0 for the
// whole log), invoking fn for each commit, overflow and checkpoint block;
// skip records are consumed silently. Segments wholly below from are listed
// but not read. The scan stops at the first hole (torn or missing block),
// which by construction of the flusher can only be at the tail.
//
// Each segment the scan enters must follow the one before it: the next
// modulo number, starting at or after its end, past at most a dead zone. A
// dead zone holds the claims that raced the roll, each under a quarter
// segment, so it is shorter than the NumSegments segments a missing run with
// a matching modulo number spans. A segment that does not follow is a gap,
// and the scan fails naming both neighbours rather than replay past lost
// commits. A gap wholly below from is a truncation half-applied at a crash.
func Recover(st Storage, from uint64, fn func(Block) error) (*RecoverResult, error) {
	metas, err := Segments(st)
	if err != nil {
		return nil, err
	}
	res := &RecoverResult{Segments: metas, NextOffset: max(from, Grain)}
	started := false
	var payload []byte
	for i, sm := range metas {
		if sm.End <= from {
			continue
		}
		if i > 0 && sm.Start > from {
			if p := metas[i-1]; sm.Num != (p.Num+1)%NumSegments || sm.Start < p.End ||
				sm.Start-p.End >= NumSegments*(sm.End-sm.Start) {
				return nil, fmt.Errorf("wal: gap in the log between segment %s and segment %s", p.Name, sm.Name)
			}
		}
		off := max(from, sm.Start)
		if !started {
			res.NextOffset, started = off, true
		}
		r, err := openSegment(st, sm)
		if err != nil {
			return nil, err
		}
		for off < sm.End {
			b, err := r.block(off, &payload)
			if err != nil && !errors.Is(err, errCorrupt) {
				r.f.Close()
				return nil, err
			}
			if b.Size == 0 {
				break // hole: unwritten space, or a torn or corrupt block
			}
			if b.Type != BlockSkip && fn != nil {
				if err := fn(b); err != nil {
					r.f.Close()
					return nil, err
				}
			}
			off += b.Size
			res.NextOffset = off
			payload = payload[:0]
		}
		r.f.Close()
		if off != sm.End {
			// This segment never closed (filled, or ended by a closing skip
			// record): it is the tail, and later segments (if any) hold no
			// committed work past this hole.
			break
		}
	}
	return res, nil
}

// ReadBlock fetches the block at offset off from storage, used to follow
// overflow chains and to find a checkpoint's begin record.
func ReadBlock(st Storage, metas []SegmentMeta, off uint64) (Block, error) {
	for _, sm := range metas {
		if off < sm.Start || off >= sm.End {
			continue
		}
		r, err := openSegment(st, sm)
		if err != nil {
			return Block{}, err
		}
		defer r.f.Close()
		b, err := r.block(off, new([]byte)) // a fresh buffer: the caller keeps the payload
		if err == nil && b.Size == 0 {
			err = fmt.Errorf("wal: no valid block at %#x in %s", off, sm.Name)
		}
		return b, err
	}
	return Block{}, fmt.Errorf("wal: offset %#x maps to no segment", off)
}

// putHeader encodes a block header into h; the block's bytes, its reader
// and this encoder are the whole on-disk format (see headerSize). sum is the
// FNV-1a of the payload; the stored checksum continues it over h[2:28].
func putHeader(h *[headerSize]byte, typ uint8, off, size, prev uint64, plen, sum uint32) {
	binary.LittleEndian.PutUint16(h[0:], headerMagic)
	h[2] = typ
	binary.LittleEndian.PutUint32(h[4:], uint32(size))
	binary.LittleEndian.PutUint64(h[8:], off)
	binary.LittleEndian.PutUint64(h[16:], prev)
	binary.LittleEndian.PutUint32(h[24:], plen)
	binary.LittleEndian.PutUint32(h[28:], fnvAdd(sum, h[2:28]))
}

// errCorrupt marks a block below its reader's horizon whose header fields or
// checksum are wrong.
var errCorrupt = errors.New("wal: corrupt block")

// segReader reads blocks out of one segment file. Recover, ReadBlock,
// lastBlockBoundary and Tail.Next share it, so all apply the same checks.
type segReader struct {
	sm SegmentMeta
	f  File
	// size is the file's real size. It clamps every header-declared length:
	// segment names and block headers are data, and data can lie.
	size uint64
	// horizon is the offset below which every block is whole: the durable
	// horizon of a live log, or the segment's end for a file at rest.
	horizon uint64
	// end is where every block ends by: the segment's end, or for a Tail
	// the log's reserved end if that is lower. A header that claims more
	// is corrupt, not yet to be written.
	end uint64
	hdr [headerSize]byte
}

// newSegReader reads f, the file of segment sm. Over a live log, load the
// horizon first: the size read here then covers every byte below it.
func newSegReader(sm SegmentMeta, f File, horizon uint64) (*segReader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("wal: size segment %s: %w", sm.Name, err)
	}
	return &segReader{sm: sm, f: f, size: uint64(size), horizon: horizon, end: sm.End}, nil
}

func openSegment(st Storage, sm SegmentMeta) (*segReader, error) {
	f, err := st.Open(sm.Name)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", sm.Name, err)
	}
	r, err := newSegReader(sm, f, sm.End)
	if err != nil {
		f.Close()
	}
	return r, err
}

// block reads the block at off, appending its payload to *buf. At off is
// one of three things:
//   - a whole, valid block, returned with its padded Size;
//   - nothing yet: unwritten space (past the file, or no magic), or a block
//     that ends past the horizon. The Block is zero and the error nil;
//   - a block whose header fields are wrong (one that claims to end past
//     end among them), or one below the horizon whose checksum is wrong:
//     an errCorrupt naming the offset and the segment.
//
// Any other error is I/O.
func (r *segReader) block(off uint64, buf *[]byte) (Block, error) {
	sm, hdr := r.sm, r.hdr[:]
	if _, err := r.f.ReadAt(hdr, int64(off-sm.Start)); err != nil {
		if err == io.EOF {
			return Block{}, nil
		}
		return Block{}, fmt.Errorf("wal: read segment %s: %w", sm.Name, err)
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != headerMagic {
		return Block{}, nil
	}
	size := uint64(binary.LittleEndian.Uint32(hdr[4:]))
	plen := uint64(binary.LittleEndian.Uint32(hdr[24:]))
	if binary.LittleEndian.Uint64(hdr[8:]) != off || size == 0 || size%Grain != 0 ||
		off+size > r.end || plen > size-headerSize {
		return Block{}, fmt.Errorf("%w header at %#x in %s", errCorrupt, off, sm.Name)
	}
	if off+size > r.horizon {
		return Block{}, nil
	}
	if off-sm.Start+headerSize+plen > r.size {
		return Block{}, fmt.Errorf("%w payload past the file at %#x in %s", errCorrupt, off, sm.Name)
	}
	start := len(*buf)
	*buf = slices.Grow(*buf, int(plen))[:start+int(plen)]
	p := (*buf)[start:len(*buf):len(*buf)]
	if plen > 0 {
		if _, err := r.f.ReadAt(p, int64(off-sm.Start+headerSize)); err != nil && err != io.EOF {
			return Block{}, fmt.Errorf("wal: read payload %s: %w", sm.Name, err)
		}
	}
	if fnvAdd(fnvAdd(fnvInit, p), hdr[2:28]) != binary.LittleEndian.Uint32(hdr[28:]) {
		return Block{}, fmt.Errorf("%w checksum at %#x in %s", errCorrupt, off, sm.Name)
	}
	return Block{LSN: MakeLSN(off, sm.Num), Type: hdr[2], Size: size,
		Prev: binary.LittleEndian.Uint64(hdr[16:]), Payload: p}, nil
}
