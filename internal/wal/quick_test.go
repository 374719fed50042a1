package wal

import (
	"testing"
	"testing/quick"
)

// TestQuickPadInvariants: pad is monotone, Grain-aligned, minimal.
func TestQuickPadInvariants(t *testing.T) {
	if err := quick.Check(func(n uint32) bool {
		v := uint64(n)
		p := pad(v)
		return p >= v && p%Grain == 0 && p < v+Grain
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLSNRoundTrip: MakeLSN/Offset/Segment are inverses, and offset
// ordering survives the encoding regardless of segment number.
func TestQuickLSNRoundTrip(t *testing.T) {
	if err := quick.Check(func(off uint64, seg uint8) bool {
		off &= (1 << 60) - 1
		s := int(seg) % NumSegments
		l := MakeLSN(off, s)
		return l.Offset() == off && l.Segment() == s
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b uint64, sa, sb uint8) bool {
		a &= (1 << 60) - 1
		b &= (1 << 60) - 1
		la := MakeLSN(a, int(sa)%NumSegments)
		lb := MakeLSN(b, int(sb)%NumSegments)
		if a < b {
			return la < lb
		}
		if a > b {
			return la > lb
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickChecksumDetectsCorruption: flipping any payload byte changes the
// FNV checksum.
func TestQuickChecksumDetectsCorruption(t *testing.T) {
	if err := quick.Check(func(payload []byte, pos uint16, flip uint8) bool {
		if len(payload) == 0 || flip == 0 {
			return true
		}
		orig := fnvAdd(fnvInit, payload)
		i := int(pos) % len(payload)
		mut := append([]byte(nil), payload...)
		mut[i] ^= flip
		return fnvAdd(fnvInit, mut) != orig
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSegmentNameRoundTrip: segment names parse back to their fields.
func TestQuickSegmentNameRoundTrip(t *testing.T) {
	if err := quick.Check(func(num uint8, start, size uint32) bool {
		n := int(num) % NumSegments
		s := uint64(start)
		e := s + uint64(size) + 1
		name := segmentName(n, s, e)
		gn, gs, ge, ok := parseSegmentName(name)
		return ok && gn == n && gs == s && ge == e
	}, nil); err != nil {
		t.Error(err)
	}
	if _, _, _, ok := parseSegmentName("ckpt-0000000000000040"); ok {
		t.Error("checkpoint blob parsed as segment")
	}
	if _, _, _, ok := parseSegmentName("garbage"); ok {
		t.Error("garbage parsed as segment")
	}
}

// TestQuickRandomSizedBlocksRecover: any sequence of block sizes writes and
// recovers intact across segment rotations.
func TestQuickRandomSizedBlocksRecover(t *testing.T) {
	if err := quick.Check(func(sizes []uint16) bool {
		st := NewMemStorage()
		m, err := Open(Config{SegmentSize: 8 << 10, BufferSize: 4 << 10, Storage: st}, nil)
		if err != nil {
			return false
		}
		var want []int
		for _, s := range sizes {
			n := int(s) % m.MaxPayload()
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i ^ n)
			}
			r, err := m.Reserve(n, BlockCommit)
			if err != nil {
				m.Close()
				return false
			}
			r.Append(payload)
			r.Commit()
			want = append(want, n)
		}
		if m.Flush() != nil || m.Close() != nil {
			return false
		}
		i := 0
		ok := true
		_, err = Recover(st, 0, func(b Block) error {
			if i >= len(want) || len(b.Payload) != want[i] {
				ok = false
			} else {
				for j, c := range b.Payload {
					if c != byte(j^want[i]) {
						ok = false
						break
					}
				}
			}
			i++
			return nil
		})
		return err == nil && ok && i == len(want)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
