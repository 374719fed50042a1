package wal

import (
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
