package wal_test

import (
	"testing"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// BenchmarkCommitSync prices the sync rung of a commit on the machine's own
// file system: per op, one 300-byte commit made durable through the flusher
// into a DirStorage segment. syncs/op counts the file syncs it took.
func BenchmarkCommitSync(b *testing.B) {
	dir, err := wal.NewDirStorage(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	gate := faultfs.NewSyncGate(dir, 0)
	m, err := wal.Open(wal.Config{Storage: gate}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	payload := make([]byte, 300)
	syncs := gate.Syncs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := m.Reserve(len(payload), wal.BlockCommit)
		if err != nil {
			b.Fatal(err)
		}
		r.Append(payload)
		r.Commit()
		if err := m.WaitDurable(r.Offset() + 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(gate.Syncs()-syncs)/float64(b.N), "syncs/op")
}
