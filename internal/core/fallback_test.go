package core

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

// Every retained checkpoint can start a recovery: truncation keeps the log
// from the lowest floor among the retained blobs, so damage to the newest
// falls back to its predecessor, and a truncated log with no usable blob is
// refused by name rather than replayed without its catalog.

// checkpointBlobs lists the published blobs in st, oldest first.
func checkpointBlobs(t *testing.T, st wal.Storage) []string {
	t.Helper()
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var blobs []string
	for _, n := range names {
		if _, _, ok := parseCheckpointName(n); ok {
			blobs = append(blobs, n)
		}
	}
	return blobs
}

// damageBlob flips two body bytes of the named blob, leaving its header
// intact: the trailer checksum fails, the floor still reads.
func damageBlob(t *testing.T, st wal.Storage, name string) {
	t.Helper()
	f, err := st.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, size)
	if _, err := f.ReadAt(image, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	mid := checkpointHeaderSize + (len(image)-checkpointHeaderSize)/2
	image[mid] ^= 0x5a
	image[mid+1] ^= 0xa5
	if _, err := f.WriteAt(image, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// twoCheckpointLog commits 150 rows, checkpoints, commits 150 more,
// checkpoints again and truncates, in 8 KiB segments. It returns the crashed
// storage, the two retained blobs oldest first, and the committed rows.
func twoCheckpointLog(t *testing.T) (*wal.MemStorage, []string, map[string]string) {
	t.Helper()
	st := wal.NewMemStorage()
	db, err := Open(scanConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	want := map[string]string{}
	val := strings.Repeat("x", 300)
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%04d", i)
		put(t, db, tbl, k, val)
		want[k] = val
		if i == 149 || i == 299 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("truncation freed no segments; the workload must span several")
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	img := st.Crash()
	blobs := checkpointBlobs(t, img)
	if len(blobs) != 2 {
		t.Fatalf("%d blobs retained: %v", len(blobs), blobs)
	}
	return img, blobs, want
}

// TestTruncateKeepsThePredecessorsLog: after truncation, damage to the
// newest blob falls back to its predecessor, whose begin record and log
// suffix the truncation kept, and every row recovers. The next checkpoint
// keeps that predecessor, not the damaged blob, so damage to the new one
// falls back again.
func TestTruncateKeepsThePredecessorsLog(t *testing.T) {
	st, blobs, want := twoCheckpointLog(t)
	damageBlob(t, st, blobs[1])
	db, err := Recover(scanConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	if ci, _ := db.LastCheckpoint(); ci.Name != blobs[0] {
		t.Fatalf("adopted %q, want the predecessor %s", ci.Name, blobs[0])
	}
	expect(t, db, "t", want)

	put(t, db, db.OpenTable("t"), "post", "fallback")
	want["post"] = "fallback"
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	newest, _ := db.LastCheckpoint()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if kept := checkpointBlobs(t, st); len(kept) != 2 || kept[0] != blobs[0] || kept[1] != newest.Name {
		t.Fatalf("kept %v, want [%s %s]", kept, blobs[0], newest.Name)
	}
	damageBlob(t, st, newest.Name)
	db, err = Recover(scanConfig(st.Crash()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	expect(t, db, "t", want)
}

// TestCheckpointGenAfterFallback: a recovery that passed over a damaged
// newest blob adopts an older generation, and the next checkpoint still
// takes a generation above every blob in storage, the damaged one included.
func TestCheckpointGenAfterFallback(t *testing.T) {
	st, blobs, _ := twoCheckpointLog(t)
	damageBlob(t, st, blobs[1])
	var highest uint64
	for _, b := range blobs {
		_, gen, _ := parseCheckpointName(b)
		highest = max(highest, gen)
	}
	db, err := Recover(scanConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ci, _ := db.LastCheckpoint(); ci.Gen <= highest {
		t.Fatalf("checkpoint after fallback took generation %d (%s); storage already held generation %d in %v", ci.Gen, ci.Name, highest, blobs)
	}
}

// TestRecoverRefusesWithoutUsableCheckpoint: with both retained blobs
// damaged, the truncated log alone holds no catalog. Recovery refuses
// before it replays anything, naming each blob it passed over.
func TestRecoverRefusesWithoutUsableCheckpoint(t *testing.T) {
	st, blobs, _ := twoCheckpointLog(t)
	for _, b := range blobs {
		damageBlob(t, st, b)
	}
	db, err := Recover(scanConfig(st))
	if err == nil {
		db.Close()
		t.Fatal("recovered a truncated log with no usable checkpoint")
	}
	for _, b := range blobs {
		if !strings.Contains(err.Error(), b) {
			t.Errorf("Recover = %v; want blob %s named", err, b)
		}
	}
	if strings.Contains(err.Error(), "replay") {
		t.Errorf("Recover = %v; want a refusal before replay", err)
	}
}

// TestRetainedCheckpointDamageSweep damages each retained blob in turn
// after the crash sweep's workload, and checks every recovery with the
// sweep's acked-commit oracle. Round two recovers, commits, checkpoints
// once more and truncates again in a new process, so the predecessor's
// floor comes from its blob header, not from memory.
func TestRetainedCheckpointDamageSweep(t *testing.T) {
	inner := wal.NewMemStorage()
	states, _ := runSweepWorkload(t, sweepSeed, faultfs.NewRecorder(inner))
	sweepRetained(t, "round one", inner.Crash(), states)

	st := inner.Crash()
	db, err := Recover(sweepConfig(st))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.OpenTable("t")
	si := db.OpenSecondaryIndex("t-by-sk")
	model := copyMap(states[len(states)-1])
	var removed []string
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%02d", i%24)
		val := sweepVal(fmt.Sprintf("r2-%03d", i))
		txn := db.BeginTxn(0)
		if _, ok := model[key]; ok {
			err = txn.Update(tbl, []byte(key), []byte(val))
		} else {
			err = txn.InsertWithSecondary(tbl, []byte(key), []byte(val),
				[]SecondaryEntry{{Index: si, Key: skeyFor(key)}})
		}
		if err != nil {
			t.Fatalf("round two txn %d: %v", i, err)
		}
		mustCommit(t, txn)
		model[key] = val
		states = append(states, copyMap(model))
		if i == 80 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if removed, err = db.TruncateLog(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(removed) == 0 {
		t.Fatal("round two's truncation freed no segments")
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	sweepRetained(t, "round two", st.Crash(), states)
}

// sweepRetained recovers once per retained blob in st, with that blob
// damaged, and checks each against states, every one of them acked.
func sweepRetained(t *testing.T, round string, st *wal.MemStorage, states []map[string]string) {
	t.Helper()
	blobs := checkpointBlobs(t, st)
	if len(blobs) != 2 {
		t.Fatalf("%s: %d blobs retained: %v", round, len(blobs), blobs)
	}
	for _, b := range blobs {
		img := st.Crash()
		damageBlob(t, img, b)
		checkRecovered(t, img, states, len(states)-1, func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s, %s damaged: %s", round, b, fmt.Sprintf(format, args...))
		})
	}
}

// TestPromotedReplicaKeepsStraddlingChain is TestTruncateKeepsStraddlingChain
// on a replica: seeded from the primary's checkpoint, fed the log from the
// segment holding its floor, promoted, and truncated before it takes a
// checkpoint of its own. The seeded blob carries the primary's floor, so the
// straddling chain survives.
func TestPromotedReplicaKeepsStraddlingChain(t *testing.T) {
	st := wal.NewMemStorage()
	cfg := scanConfig(st)
	cfg.LogPerOperation = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	w := db.Begin(1)
	for i := 0; i < 3; i++ {
		if err := w.Insert(tbl, []byte(fmt.Sprintf("w%d", i)), []byte("straddles")); err != nil {
			t.Fatal(err)
		}
	}
	val := strings.Repeat("v", 300)
	for i := 0; i < 150; i++ {
		put(t, db, tbl, fmt.Sprintf("k%04d", i), val)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	ck, err := db.CheckpointChunk(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	primary := st.Crash()

	rst := wal.NewMemStorage()
	rcfg := scanConfig(rst)
	rdb, ap, _, err := OpenReplica(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	begin, err := rdb.SeedCheckpoint(ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	ap.SetCheckpoint(begin)
	segs, err := wal.Segments(primary)
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range segs {
		if sm.End > ck.Start {
			copyFile(t, primary, rst, sm.Name)
			ap.AddSegment(sm)
		}
	}
	res, err := wal.Recover(rst, ck.Start, ap.Apply)
	ap.Close()
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(rcfg.WAL, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdb.Promote(log); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Recover(scanConfig(rst.Crash()))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.BeginTxn(0)
	defer txn.Abort()
	if v, err := txn.Get(db2.OpenTable("t"), []byte("w2")); err != nil || string(v) != "straddles" {
		t.Fatalf("w2 = %q, %v", v, err)
	}
}

// copyFile copies the file name from src to dst and syncs it.
func copyFile(t *testing.T, src, dst wal.Storage, name string) {
	t.Helper()
	in, err := src.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	size, err := in.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := in.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	out, err := dst.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := out.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := out.Sync(); err != nil {
		t.Fatal(err)
	}
}
