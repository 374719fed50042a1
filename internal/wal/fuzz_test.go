// Recovery fuzzing: a mutated disk image — bit flips, truncations, garbage
// headers, lying length fields — must always produce a clean scan result or
// error, never a panic or a giant allocation.
package wal_test

import (
	"encoding/binary"
	"io"
	"math"
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
