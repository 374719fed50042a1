package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// collectTail drains a Tail until it catches up, returning every block.
func collectTail(t *testing.T, tail *Tail) []TailBlock {
	t.Helper()
	var out []TailBlock
	for {
		blocks, _, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) == 0 {
			return out
		}
		for _, b := range blocks {
			// Payloads alias the tail's scratch buffer; copy to retain.
			b.Payload = append([]byte(nil), b.Payload...)
			out = append(out, b)
		}
	}
}

// TestTailYieldsCommittedBlocks checks the basic contract: every committed,
// durable block comes back in offset order with its payload intact, and the
// cursor then reports caught-up without error.
func TestTailYieldsCommittedBlocks(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("payload-%02d", i))
		appendBlock(t, m, p)
		want = append(want, p)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collectTail(t, m.TailFrom(Grain))
	var commits [][]byte
	for _, b := range got {
		if b.Type == BlockCommit {
			commits = append(commits, b.Payload)
		}
	}
	if len(commits) != len(want) {
		t.Fatalf("tail yielded %d commit blocks, want %d", len(commits), len(want))
	}
	for i := range want {
		if !bytes.Equal(commits[i], want[i]) {
			t.Errorf("block %d payload = %q, want %q", i, commits[i], want[i])
		}
	}
	var last uint64
	for _, b := range got {
		if b.Off <= last {
			t.Fatalf("offsets not increasing: %#x after %#x", b.Off, last)
		}
		last = b.Off
	}
}

// TestTailCrossesSegmentsAndSkips drives the log across several tiny
// segments: the tail must skip dead zones silently but still yield the
// skip records (segment closers and absorbed aborts) a mirror needs.
func TestTailCrossesSegmentsAndSkips(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	payload := make([]byte, 512)
	n := 0
	for i := 0; i < 64; i++ {
		if i%7 == 3 {
			// Aborted reservation: becomes a skip record in the log.
			r, err := m.Reserve(len(payload), BlockCommit)
			if err != nil {
				t.Fatal(err)
			}
			r.Abort()
			continue
		}
		appendBlock(t, m, payload)
		n++
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	got := collectTail(t, m.TailFrom(Grain))
	commits, skips := 0, 0
	segSeen := map[int]bool{}
	for _, b := range got {
		switch b.Type {
		case BlockCommit:
			commits++
		case BlockSkip:
			skips++
		}
	}
	if commits != n {
		t.Fatalf("tail yielded %d commits, want %d", commits, n)
	}
	if skips == 0 {
		t.Fatal("tail yielded no skip records; a mirror could not close segments")
	}
	// The workload above overflows one 8KiB segment many times over.
	var segs []SegmentMeta
	tail := m.TailFrom(Grain)
	for {
		blocks, sm, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) == 0 {
			break
		}
		segs = append(segs, sm...)
	}
	for _, sm := range segs {
		segSeen[sm.Num] = true
	}
	if len(segs) < 2 {
		t.Fatalf("tail crossed %d segments, want several (seen %v)", len(segs), segSeen)
	}
}

// TestTailStopsAtDurable checks that the tail never yields a block past the
// durable horizon: before Flush, nothing the flusher has not synced comes
// back.
func TestTailStopsAtDurable(t *testing.T) {
	cfg := testConfig(NewMemStorage())
	cfg.SyncFlush = true // durability advances only on explicit Flush
	m := mustOpen(t, cfg)
	defer m.Close()

	appendBlock(t, m, []byte("first"))
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, m, []byte("second")) // reserved+committed, not yet flushed

	tail := m.TailFrom(Grain)
	blocks, _, err := tail.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if bytes.Equal(b.Payload, []byte("second")) {
			t.Fatal("tail yielded a block past the durable horizon")
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks, _, err = tail.Next(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range blocks {
		if bytes.Equal(b.Payload, []byte("second")) {
			found = true
		}
	}
	if !found {
		t.Fatal("tail never caught up to the newly durable block")
	}
}

// TestTailTruncated checks the re-seed signal: a cursor below the oldest
// live segment after a truncation fails with ErrTailTruncated, while a
// cursor below Grain on a fresh log just snaps forward.
func TestTailTruncated(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	// Fresh log: position 0 is merely invalid, not truncated.
	tail := m.TailFrom(0)
	if _, _, err := tail.Next(1 << 20); err != nil {
		t.Fatalf("fresh-log tail from 0: %v", err)
	}

	// Fill several segments, then truncate the oldest away.
	payload := make([]byte, 512)
	for i := 0; i < 64; i++ {
		appendBlock(t, m, payload)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	removed, err := m.Truncate(3 * 8 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("truncate removed nothing; test needs more segments")
	}
	tail = m.TailFrom(Grain)
	if _, _, err := tail.Next(1 << 20); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("tail below truncation = %v, want ErrTailTruncated", err)
	}
}

// TestTailMirrorRoundTrip is the core byte-compatibility property: writing
// every tailed block (header + payload) into a fresh storage at the same
// offsets yields a log that wal.Recover reads back with identical commit
// blocks — the mirror a replica maintains really is a log.
func TestTailMirrorRoundTrip(t *testing.T) {
	m := mustOpen(t, testConfig(NewMemStorage()))
	defer m.Close()

	var want [][]byte
	for i := 0; i < 48; i++ {
		p := []byte(fmt.Sprintf("rec-%03d", i))
		appendBlock(t, m, p)
		want = append(want, p)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}

	mirror := NewMemStorage()
	files := map[string]File{}
	tail := m.TailFrom(Grain)
	for {
		blocks, segs, err := tail.Next(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(blocks) == 0 {
			break
		}
		metas := map[string]SegmentMeta{}
		for _, sm := range segs {
			name := SegmentFileName(sm.Num, sm.Start, sm.End)
			metas[name] = sm
			if _, ok := files[name]; !ok {
				f, err := mirror.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				files[name] = f
			}
		}
		for _, b := range blocks {
			var dst File
			var start uint64
			for name, sm := range metas {
				if b.Off >= sm.Start && b.Off < sm.End {
					dst, start = files[name], sm.Start
				}
			}
			if dst == nil {
				t.Fatalf("block at %#x maps to no segment in batch", b.Off)
			}
			buf := AppendBlockHeader(nil, b.Type, b.Off, b.Size, b.Prev, b.Payload)
			buf = append(buf, b.Payload...)
			if _, err := dst.WriteAt(buf, int64(b.Off-start)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var got [][]byte
	res, err := Recover(mirror, 0, func(b Block) error {
		if b.Type == BlockCommit {
			got = append(got, append([]byte(nil), b.Payload...))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mirror recovered %d commits, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("mirror block %d = %q, want %q", i, got[i], want[i])
		}
	}
	if res.NextOffset != m.DurableOffset() {
		t.Errorf("mirror recovery horizon %#x != primary durable %#x", res.NextOffset, m.DurableOffset())
	}
}
