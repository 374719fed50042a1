// Recovery fuzzing: a mutated disk image — bit flips, truncations, garbage
// headers, lying length fields — must always produce a clean scan result or
// error, never a panic or a giant allocation.
package wal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"ermia/internal/wal"
)

// fuzzSegSize is the segment size of the fuzz seed logs.
const fuzzSegSize = 4096

// fuzzSeedLog builds a small valid log of three to eight segments and
// returns them with the log's image: every segment file in offset order,
// zero-padded to fuzzSegSize.
func fuzzSeedLog(f *testing.F) ([]wal.SegmentMeta, []byte) {
	st := wal.NewMemStorage()
	m, err := wal.Open(wal.Config{
		SegmentSize: fuzzSegSize, BufferSize: 2048, Storage: st, SyncFlush: true,
	}, nil)
	if err != nil {
		f.Fatal(err)
	}
	payloads := []string{"alpha", "beta", "a longer payload spanning grains", ""}
	for i := 0; i < 60; i++ {
		p := payloads[i%len(payloads)] + strings.Repeat("x", 200*(i/len(payloads)%2))
		r, err := m.Reserve(len(p), wal.BlockCommit)
		if err != nil {
			f.Fatal(err)
		}
		r.Append([]byte(p))
		r.Commit()
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	return segmentImages(f, st)
}

// segmentImages returns the segments of st and the image of the log.
func segmentImages(f *testing.F, st wal.Storage) ([]wal.SegmentMeta, []byte) {
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 3 || len(segs) > 8 {
		f.Fatalf("%d segment files (%v); want 3 to 8", len(segs), err)
	}
	image := make([]byte, len(segs)*fuzzSegSize)
	for i, sm := range segs {
		fl, err := st.Open(sm.Name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := fl.ReadAt(image[i*fuzzSegSize:(i+1)*fuzzSegSize], 0); err != nil && err != io.EOF {
			f.Fatal(err)
		}
		fl.Close()
	}
	return segs, image
}

// writeSegments lays image out as the segment files segs name, one
// fuzzSegSize chunk each, leaving out the segments whose bit is set in
// drop and those the image is too short to reach (the first always gets a
// file). It reports the start of the first segment left out after one
// that was written: no scan may yield a block at or above it.
func writeSegments(t *testing.T, st wal.Storage, segs []wal.SegmentMeta, image []byte, drop uint8) uint64 {
	gap, written := uint64(math.MaxUint64), false
	for i, sm := range segs {
		chunk := image[min(i*fuzzSegSize, len(image)):min((i+1)*fuzzSegSize, len(image))]
		if drop&(1<<i) != 0 || (i > 0 && len(chunk) == 0) {
			if written && gap == math.MaxUint64 && drop&(1<<i) != 0 {
				gap = sm.Start
			}
			continue
		}
		fl, err := st.Create(sm.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) > 0 {
			if _, err := fl.WriteAt(chunk, 0); err != nil {
				t.Fatal(err)
			}
		}
		fl.Sync()
		fl.Close()
		written = true
	}
	return gap
}

func FuzzRecover(f *testing.F) {
	segs, log := fuzzSeedLog(f)
	seed := log[:fuzzSegSize] // the first segment alone
	f.Add(seed, uint8(0))
	f.Add(seed[:len(seed)/2], uint8(0)) // truncation
	f.Add(seed[:wal.Grain/2], uint8(0)) // mid-header truncation
	flip := append([]byte(nil), seed...)
	flip[len(flip)/3] ^= 0x10 // payload bit flip
	f.Add(flip, uint8(0))
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFF0)  // size lies
	binary.LittleEndian.PutUint32(huge[24:], 0xFFFFFFF0) // plen lies
	f.Add(huge, uint8(0))
	garbage := append([]byte(nil), seed...)
	copy(garbage, "GARBAGE HEADER GARBAGE HEADER !!")
	f.Add(garbage, uint8(0))
	f.Add(log, uint8(0))    // every segment
	f.Add(log, uint8(1<<1)) // the second segment missing: a gap

	f.Fuzz(func(t *testing.T, image []byte, drop uint8) {
		st := wal.NewMemStorage()
		gap := writeSegments(t, st, segs, image, drop)

		// Any outcome except a panic is acceptable; when the scan succeeds,
		// every yielded block must also be individually readable, and so must
		// whatever the Prev fields point at.
		var lsns []wal.LSN
		var prevs []uint64
		res, err := wal.Recover(st, 0, func(b wal.Block) error {
			lsns = append(lsns, b.LSN)
			if b.Prev != 0 {
				prevs = append(prevs, b.Prev)
			}
			return nil
		})
		if err != nil {
			return
		}
		for _, l := range lsns {
			if l.Offset() >= gap {
				t.Fatalf("scan yielded a block at %#x, past a missing segment at %#x", l.Offset(), gap)
			}
		}
		for _, l := range lsns {
			wal.ReadBlock(st, res.Segments, l.Offset())
		}
		for _, p := range prevs {
			wal.ReadBlock(st, res.Segments, p)
		}
	})
}

// fuzzTailLog writes a small log of several fuzzSegSize segments through a
// live SyncFlush manager, aborts included, and makes it durable. The bytes
// are the same on every call.
func fuzzTailLog(t testing.TB) (*wal.Manager, *wal.MemStorage) {
	st := wal.NewMemStorage()
	m, err := wal.Open(wal.Config{
		SegmentSize: fuzzSegSize, BufferSize: 2048, Storage: st, SyncFlush: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p := []byte(fmt.Sprintf("block %02d %s", i, strings.Repeat("x", 150*(i%3))))
		r, err := m.Reserve(len(p), wal.BlockCommit)
		if err != nil {
			t.Fatal(err)
		}
		if i%9 == 4 {
			r.Abort()
			continue
		}
		r.Append(p)
		r.Commit()
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	return m, st
}

// drainAll reads a Tail from the start of the log until it catches up or
// fails, copying each block.
func drainAll(m *wal.Manager) ([]wal.Block, error) {
	var out []wal.Block
	tail := m.TailFrom(wal.Grain)
	for {
		blocks, _, err := tail.Next(1 << 10)
		for _, b := range blocks {
			b.Payload = append([]byte(nil), b.Payload...)
			out = append(out, b)
		}
		if err != nil || len(blocks) == 0 {
			return out, err
		}
	}
}

// FuzzTail flips one byte of a durable log's segment files, at offset
// Grain+off modulo the log, then drains a Tail over the live manager. The
// Tail must not panic. Every block it yields was written at its offset with
// the same payload and the same header. A flip in a payload, in a header
// field the checksum or the offset check covers, or one that puts a size
// field off the grain, is an error naming the block's offset; a flip in
// padding changes nothing.
func FuzzTail(f *testing.F) {
	m, _ := fuzzTailLog(f)
	want, err := drainAll(m)
	m.Close()
	if err != nil || len(want) < 30 {
		f.Fatalf("clean log: %d blocks, %v", len(want), err)
	}
	f.Add(uint16(0), uint8(0))                                                       // a clean log
	f.Add(uint16(want[5].LSN.Offset()+wal.BlockHeaderSize+3-wal.Grain), uint8(0x10)) // a payload byte
	f.Add(uint16(want[7].LSN.Offset()+4-wal.Grain), uint8(0x08))                     // the size field lies
	f.Add(uint16(want[9].LSN.Offset()+2-wal.Grain), uint8(0x01))                     // the type byte
	f.Fuzz(func(t *testing.T, off uint16, xor uint8) {
		m, st := fuzzTailLog(t)
		defer m.Close()
		flipped := wal.Grain + uint64(off)%(m.DurableOffset()-wal.Grain)
		segs, err := wal.Segments(st)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range segs {
			if flipped >= sm.Start && flipped < sm.End {
				fl, _ := st.Open(sm.Name)
				b := make([]byte, 1)
				if _, err := fl.ReadAt(b, int64(flipped-sm.Start)); err != nil {
					xor = 0 // a dead zone, or past the file: nothing to flip
				}
				b[0] ^= xor
				fl.WriteAt(b, int64(flipped-sm.Start))
			}
		}
		// The written block the flip landed in, and where in it.
		var hit *wal.Block
		var d uint64
		for i := range want {
			if o := want[i].LSN.Offset(); xor != 0 && flipped >= o && flipped < o+want[i].Size {
				hit, d = &want[i], flipped-o
			}
		}
		inHeader := hit != nil && d < wal.BlockHeaderSize
		inPayload := hit != nil && !inHeader && d < wal.BlockHeaderSize+uint64(len(hit.Payload))
		offGrain := inHeader && d >= 4 && d < 8 && (hit.Size^uint64(xor)<<(8*(d-4)))%wal.Grain != 0
		checked := inHeader && d >= 2 && (d < 4 || d >= 8) // every header byte but the magic and the size

		got, err := drainAll(m)
		for _, b := range got {
			i := slices.IndexFunc(want, func(w wal.Block) bool { return w.LSN == b.LSN })
			if i < 0 || !bytes.Equal(b.Payload, want[i].Payload) {
				t.Fatalf("tail yielded a block at %#x that was never written there", b.LSN.Offset())
			}
			w := want[i]
			if b.Type != w.Type || b.Size != w.Size || b.Prev != w.Prev {
				t.Fatalf("tail yielded the block at %#x with a header unlike the written one", b.LSN.Offset())
			}
		}
		switch {
		case inPayload || offGrain || checked:
			if o := fmt.Sprintf("%#x", hit.LSN.Offset()); err == nil || !strings.Contains(err.Error(), o) {
				t.Fatalf("flip at %#x: %v; want an error naming the block at %s", flipped, err, o)
			}
		case !inHeader:
			if err != nil || len(got) != len(want) {
				t.Fatalf("flip outside every header and payload at %#x: %d of %d blocks, %v", flipped, len(got), len(want), err)
			}
		}
	})
}

// TestTailBlockPastReservedEnd: the last durable block of an idle log has
// its size field damaged to reach its segment's end. The claimed end lies
// below the segment's end but past every offset the log ever reserved, so
// the block cannot be one still being written: the Tail reports it corrupt,
// naming it, instead of waiting for it forever.
func TestTailBlockPastReservedEnd(t *testing.T) {
	m, st := fuzzTailLog(t)
	defer m.Close()
	want, err := drainAll(m)
	if err != nil {
		t.Fatal(err)
	}
	last := want[len(want)-1]
	off := last.LSN.Offset()
	segs, err := wal.Segments(st)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(segs, func(sm wal.SegmentMeta) bool { return off >= sm.Start && off < sm.End })
	if i < 0 {
		t.Fatalf("no segment holds the last block at %#x", off)
	}
	sm := segs[i]
	if sm.End <= off+last.Size || m.CurrentOffset() >= sm.End {
		t.Fatalf("block [%#x, %#x) leaves no room in its segment ending at %#x before the reserved end %#x",
			off, off+last.Size, sm.End, m.CurrentOffset())
	}
	fl, err := st.Open(sm.Name)
	if err != nil {
		t.Fatal(err)
	}
	var size [4]byte
	binary.LittleEndian.PutUint32(size[:], uint32(sm.End-off))
	if _, err := fl.WriteAt(size[:], int64(off-sm.Start+4)); err != nil {
		t.Fatal(err)
	}

	got, err := drainAll(m)
	if o := fmt.Sprintf("%#x", off); err == nil || !strings.Contains(err.Error(), o) {
		t.Fatalf("%d of %d blocks, err %v; want an error naming the block at %s", len(got), len(want), err, o)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("tail yielded %d blocks before the damaged one, want %d", len(got), len(want)-1)
	}
}
