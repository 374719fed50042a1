package wal

import (
	"fmt"
	"strings"
	"testing"
)

// gapLog writes a log of about 25 segments and returns its storage, its
// segments and the offset of every block.
func gapLog(t *testing.T) (*MemStorage, []SegmentMeta, []uint64) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	var offs []uint64
	for i := 0; i < 200; i++ {
		offs = append(offs, appendBlock(t, m, make([]byte, 900)))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(st)
	if err != nil || len(segs) < NumSegments+3 {
		t.Fatalf("%d segments (%v); want more than %d", len(segs), err, NumSegments+2)
	}
	return st, segs, offs
}

// firstIn returns the first block offset inside sm.
func firstIn(offs []uint64, sm SegmentMeta) uint64 {
	for _, o := range offs {
		if o >= sm.Start && o < sm.End {
			return o
		}
	}
	return 0
}

// TestRecoverRefusesGap: a scan that reaches a missing segment fails with an
// error naming both neighbours instead of replaying past the lost commits —
// whether the modulo numbers show the hole or, after a run of exactly
// NumSegments missing files, only the offsets do. A gap wholly below the
// scan's start is a half-applied truncation and does not matter.
func TestRecoverRefusesGap(t *testing.T) {
	for _, missing := range []int{1, NumSegments} {
		st, segs, offs := gapLog(t)
		for _, sm := range segs[2 : 2+missing] {
			if err := st.Remove(sm.Name); err != nil {
				t.Fatal(err)
			}
		}
		prev, next := segs[1], segs[2+missing]
		for _, from := range []uint64{0, firstIn(offs, prev)} {
			n := 0
			_, err := Recover(st, from, func(Block) error { n++; return nil })
			if err == nil || !strings.Contains(err.Error(), prev.Name) || !strings.Contains(err.Error(), next.Name) {
				t.Fatalf("%d missing, scan from %#x: err = %v after %d blocks; want a gap between %s and %s",
					missing, from, err, n, prev.Name, next.Name)
			}
		}

		from := firstIn(offs, next)
		var got []uint64
		res, err := Recover(st, from, func(b Block) error {
			got = append(got, b.LSN.Offset())
			return nil
		})
		var want []uint64
		for _, o := range offs {
			if o >= from {
				want = append(want, o)
			}
		}
		if err != nil || len(got) != len(want) || got[0] != from || got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("%d missing, scan from above the gap: %d blocks (%v), want %d from %#x", missing, len(got), err, len(want), from)
		}
		if res.NextOffset <= want[len(want)-1] || len(res.Segments) != len(segs)-missing {
			t.Fatalf("NextOffset %#x, %d segments listed", res.NextOffset, len(res.Segments))
		}

		// With the first segments gone too, the log starts above the gap.
		st.Remove(segs[0].Name)
		st.Remove(segs[1].Name)
		if _, err := Recover(st, 0, nil); err != nil {
			t.Fatalf("%d missing, truncated prefix: %v", missing, err)
		}
	}
}

// TestRecoverStopsAtDamagedHeader: the block checksum covers the header, so
// a flip in any field of a committed block's header ends the log there, as a
// flip in its payload does. Recovery keeps the committed prefix and replays
// nothing past the damaged block: a commit whose type reads as a skip record
// is not skipped over.
func TestRecoverStopsAtDamagedHeader(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	var offs []uint64
	for i := 0; i < 100; i++ {
		offs = append(offs, appendBlock(t, m, []byte(fmt.Sprintf("commit-%03d", i))))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	const hit = 50
	for _, c := range []struct {
		name string
		at   int  // header byte
		xor  byte // flipped bits
	}{
		{"type reads as skip", 2, BlockCommit ^ BlockSkip},
		{"reserved byte", 3, 0x01},
		{"size, still on the grain", 5, 0x01},
		{"prev", 16, 0x40},
		{"payload length", 24, 0x02},
		{"checksum", 28, 0x80},
	} {
		img := st.Crash() // a copy: everything was synced at Close
		segs, err := Segments(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range segs {
			if offs[hit] < sm.Start || offs[hit] >= sm.End {
				continue
			}
			f, err := img.Open(sm.Name)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			pos := int64(offs[hit]-sm.Start) + int64(c.at)
			if _, err := f.ReadAt(b, pos); err != nil {
				t.Fatal(err)
			}
			b[0] ^= c.xor
			if _, err := f.WriteAt(b, pos); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		var got []uint64
		res, err := Recover(img, 0, func(b Block) error {
			got = append(got, b.LSN.Offset())
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != hit || got[hit-1] != offs[hit-1] || res.NextOffset != offs[hit] {
			t.Errorf("%s: recovered %d blocks up to %#x; want the %d before the damaged block at %#x",
				c.name, len(got), res.NextOffset, hit, offs[hit])
		}
	}
}
