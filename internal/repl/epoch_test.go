package repl_test

import (
	"errors"
	"io/fs"
	"slices"
	"testing"

	"ermia/internal/core"
	"ermia/internal/faultfs"
	"ermia/internal/repl"
	"ermia/internal/wal"
)

// epochDenied is storage whose epoch file exists but cannot be opened.
type epochDenied struct{ wal.Storage }

func (s epochDenied) Open(name string) (wal.File, error) {
	if name == "EPOCH" {
		return nil, fs.ErrPermission
	}
	return s.Storage.Open(name)
}

// TestReplicaStartRefusesUnreadableEpoch: an epoch file that cannot be
// opened fails replica start rather than drop the fence to epoch 0.
func TestReplicaStartRefusesUnreadableEpoch(t *testing.T) {
	st := wal.NewMemStorage()
	if err := repl.SaveEpoch(st, 7); err != nil {
		t.Fatal(err)
	}
	r, err := repl.Start(repl.Config{
		PrimaryAddr: "127.0.0.1:1",
		Core:        core.Config{WAL: wal.Config{Storage: epochDenied{st}}},
	})
	if err == nil {
		r.Close()
		t.Fatal("replica started over an unreadable epoch file")
	}
	if !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Start = %v, want the open error", err)
	}
}

// TestSaveEpochCrashSweep crashes SaveEpoch at every storage operation and
// torn write: the epoch read back is always one that was saved, never a
// read error, and never older than the last save that returned.
func TestSaveEpochCrashSweep(t *testing.T) {
	rec := faultfs.NewRecorder(wal.NewMemStorage())
	var done []int // trace length when each save returned
	for _, e := range []uint64{5, 9} {
		if err := repl.SaveEpoch(rec, e); err != nil {
			t.Fatal(err)
		}
		done = append(done, len(rec.Ops()))
	}
	tr := rec.Ops()
	points := faultfs.Points(tr, 1, 0)
	for _, p := range points {
		img, err := faultfs.CrashImage(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := repl.LoadEpoch(img)
		want := []uint64{0, 5, 9}
		for i, n := range done {
			if p.Index >= n {
				want = []uint64{5, 9}[i:]
			}
		}
		if err != nil || !slices.Contains(want, got) {
			t.Fatalf("crash at %v: epoch %d (%v), want one of %v", p, got, err, want)
		}
	}
	t.Logf("swept %d crash points over a %d-op trace of two saves", len(points), len(tr))
}
