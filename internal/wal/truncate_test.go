package wal

import (
	"testing"
)

func TestTruncateRemovesOnlyCoveredSegments(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	payload := make([]byte, 900)
	var offs []uint64
	for i := 0; i < 60; i++ {
		offs = append(offs, appendBlock(t, m, payload))
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := st.List()
	if len(before) < 5 {
		t.Fatalf("only %d segments; rotation not exercised", len(before))
	}

	cut := offs[len(offs)/2]
	removed, err := m.Truncate(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("nothing removed")
	}
	after, _ := st.List()
	if len(after) >= len(before) {
		t.Fatalf("segment count %d -> %d", len(before), len(after))
	}
	m.Close()

	// Recovery sees exactly the blocks at or after the first surviving
	// segment, in order, with no holes.
	var recovered []uint64
	if _, err := Recover(st, 0, func(b Block) error {
		if b.Type == BlockCommit {
			recovered = append(recovered, b.LSN.Offset())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recovered) == 0 {
		t.Fatal("no blocks survive truncation")
	}
	// Every surviving block with offset >= cut must be present.
	want := map[uint64]bool{}
	for _, o := range recovered {
		want[o] = true
	}
	for _, o := range offs {
		if o >= cut && !want[o] {
			t.Fatalf("block at %#x (>= cut %#x) lost by truncation", o, cut)
		}
	}
}

func TestTruncateNeverTouchesCurrentSegment(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	defer m.Close()
	off := appendBlock(t, m, []byte("only block"))
	m.Flush()
	removed, err := m.Truncate(^uint64(0)) // "everything"
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("removed current segment: %v", removed)
	}
	if got := m.Validate(MakeLSN(off, m.cur.Load().num)); got != Valid {
		t.Fatalf("live block invalidated: %v", got)
	}
}

func TestTruncateCapsAtDurable(t *testing.T) {
	st := NewMemStorage()
	m := mustOpen(t, testConfig(st))
	defer m.Close()
	payload := make([]byte, 900)
	for i := 0; i < 30; i++ {
		appendBlock(t, m, payload)
	}
	// Without Flush, the durable horizon trails; Truncate must not remove
	// segments containing blocks that are not yet durable.
	durable := m.DurableOffset()
	removed, err := m.Truncate(^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range removed {
		_, _, end, ok := parseSegmentName(name)
		if !ok {
			t.Fatalf("bad removed name %q", name)
		}
		if end > durable {
			t.Fatalf("removed segment %q ends at %#x past durable %#x", name, end, durable)
		}
	}
}
