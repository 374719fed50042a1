package repl

import (
	"strings"
	"testing"

	"ermia/internal/core"
	"ermia/internal/proto"
	"ermia/internal/wal"
)

// TestBatchRefusesBlockOutsideItsSegments: each block must lie in a segment
// its own batch ships. One that lies only in a segment an earlier batch
// shipped is refused before anything is mirrored.
func TestBatchRefusesBlockOutsideItsSegments(t *testing.T) {
	cfg := Config{Core: core.Config{WAL: wal.Config{Storage: wal.NewMemStorage()}}, GCEveryBlocks: 4096}
	db, ap, _, err := core.OpenReplica(cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replica{cfg: cfg, db: db, ap: ap, segs: map[string]wal.SegmentMeta{}, files: map[string]wal.File{}}
	defer func() { r.closeFiles(); ap.Close(); db.Close() }()
	skip := func(off uint64) []proto.ReplBlock {
		return []proto.ReplBlock{{Off: off, Size: wal.Grain, Type: wal.BlockSkip}}
	}
	seg := []proto.ReplSegment{{Num: 1, Start: wal.Grain, End: wal.Grain + 8<<10}}
	if err := r.applyBatch(&proto.ReplBatch{Segments: seg, Blocks: skip(wal.Grain)}); err != nil {
		t.Fatal(err)
	}
	err = r.applyBatch(&proto.ReplBatch{Blocks: skip(2 * wal.Grain)})
	if err == nil || !strings.Contains(err.Error(), "maps to no shipped segment") {
		t.Fatalf("batch without its block's segment: %v; want it refused", err)
	}
	if r.subPos != 2*wal.Grain {
		t.Fatalf("stream position %#x after the refusal; want %#x", r.subPos, 2*wal.Grain)
	}
}
