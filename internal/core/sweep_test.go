package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// The crash-point sweep: run a seeded workload once while recording every
// storage operation, then for every write/sync boundary k materialize the
// durable image of a crash at k (plus seeded torn-write variants), recover,
// and check the durability invariant:
//
//  1. prefix consistency — the recovered primary state equals the state
//     after some prefix of the committed transactions (atomicity: no
//     transaction is half-recovered, aborted transactions leave no trace);
//  2. group-commit honesty — the prefix includes at least every transaction
//     whose durability was acknowledged before the crash point;
//  3. secondary consistency — every live record is reachable through its
//     secondary key and dead keys are not, after recovery rebuilds the
//     secondary index from checkpoint bindings and log records.
//
// Workload, trace, and torn lengths are pure functions of the seed, so any
// failure reproduces from the printed seed + point alone.

const (
	sweepSeed    = 0xE121A
	sweepSegSize = 16 << 10
	sweepBufSize = 8 << 10
)

func sweepConfig(st wal.Storage) Config {
	return Config{WAL: wal.Config{
		SegmentSize: sweepSegSize,
		BufferSize:  sweepBufSize,
		Storage:     st,
		// The caller drives flushing: storage operations happen in the
		// workload thread, in program order, making the trace deterministic.
		SyncFlush: true,
	}}
}

func skeyFor(key string) []byte { return []byte("sk-" + key) }

// sweepVal pads a short tag out to 256 bytes so the 160-transaction
// workload seals several 16KiB segments — without the weight, both
// checkpoint cuts would land inside the first segment and truncation
// would never unlink anything, leaving that crash window unswept.
func sweepVal(tag string) string {
	return tag + strings.Repeat(".", 256-len(tag))
}

// ackPoint marks a durability acknowledgement: after traceLen recorded
// storage operations, the first `commits` transactions were acked durable.
type ackPoint struct {
	traceLen int
	commits  int
}

// ackFloor returns how many leading commits are guaranteed durable in a
// crash image cut at trace index k.
func ackFloor(acks []ackPoint, k int) int {
	floor := 0
	for _, a := range acks {
		if a.traceLen <= k && a.commits > floor {
			floor = a.commits
		}
	}
	return floor
}

// runSweepWorkload drives a deterministic single-worker workload over the
// recorder: upserts, deletes, intentional aborts, periodic group-commit
// acks, and two checkpoint+truncate cycles. It returns the per-prefix
// expected states (states[i] = primary contents after i commits) and the
// acknowledgement points.
func runSweepWorkload(t testing.TB, seed uint64, rec *faultfs.Recorder) ([]map[string]string, []ackPoint) {
	t.Helper()
	db, err := Open(sweepConfig(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")
	si := db.CreateSecondaryIndex(tbl, "t-by-sk")

	rng := xrand.New2(seed, 0x5EE9)
	model := map[string]string{}
	states := []map[string]string{copyMap(model)}
	var acks []ackPoint

	const nTxns = 160
	for i := 0; i < nTxns; i++ {
		txn := db.BeginTxn(0)
		staged := copyMap(model)
		nOps := 1 + rng.Intn(3)
		for j := 0; j < nOps; j++ {
			key := fmt.Sprintf("k%02d", rng.Intn(24))
			val := sweepVal(fmt.Sprintf("t%03d-o%d", i, j))
			if _, exists := staged[key]; exists {
				if rng.Intn(3) == 0 {
					if err := txn.Delete(tbl, []byte(key)); err != nil {
						t.Fatalf("txn %d delete %s: %v", i, key, err)
					}
					delete(staged, key)
				} else {
					if err := txn.Update(tbl, []byte(key), []byte(val)); err != nil {
						t.Fatalf("txn %d update %s: %v", i, key, err)
					}
					staged[key] = val
				}
			} else {
				err := txn.InsertWithSecondary(tbl, []byte(key), []byte(val),
					[]SecondaryEntry{{Index: si, Key: skeyFor(key)}})
				if err != nil {
					t.Fatalf("txn %d insert %s: %v", i, key, err)
				}
				staged[key] = val
			}
		}
		if rng.Intn(10) == 0 {
			txn.Abort() // must leave no trace in any recovered state
		} else if err := txn.Commit(); err != nil {
			t.Fatalf("txn %d commit: %v", i, err)
		} else {
			model = staged
			states = append(states, copyMap(model))
		}
		if rng.Intn(4) == 0 {
			if err := db.WaitDurable(); err != nil {
				t.Fatalf("txn %d wait durable: %v", i, err)
			}
			acks = append(acks, ackPoint{len(rec.Ops()), len(states) - 1})
		}
		if i == nTxns/3 || i == 2*nTxns/3 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("txn %d checkpoint: %v", i, err)
			}
			if _, err := db.TruncateLog(); err != nil {
				t.Fatalf("txn %d truncate: %v", i, err)
			}
			// TruncateLog forces a Flush, so this is an ack point too.
			acks = append(acks, ackPoint{len(rec.Ops()), len(states) - 1})
		}
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	acks = append(acks, ackPoint{len(rec.Ops()), len(states) - 1})
	return states, acks
}

// checkSweepPoint recovers from the crash image at p and verifies the
// durability invariant. All failure messages carry the seed and point, which
// fully determine the scenario.
func checkSweepPoint(t *testing.T, seed uint64, tr faultfs.Trace, p faultfs.Point, states []map[string]string, acks []ackPoint) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %#x, %v: %s", seed, p, fmt.Sprintf(format, args...))
	}
	img, err := faultfs.CrashImage(tr, p)
	if err != nil {
		fail("building crash image: %v", err)
	}
	checkRecovered(t, img, states, ackFloor(acks, p.Index), fail)
}

// checkRecovered recovers from st and verifies the durability invariant
// against states, where the first floor commits were acked durable.
func checkRecovered(t *testing.T, st wal.Storage, states []map[string]string, floor int, fail func(string, ...any)) {
	t.Helper()
	db, err := Recover(sweepConfig(st))
	if err != nil {
		fail("recovery: %v", err)
	}
	defer db.Close()

	got := map[string]string{}
	tbl := db.OpenTable("t")
	si := db.OpenSecondaryIndex("t-by-sk")
	if tbl != nil {
		txn := db.BeginTxn(0)
		if err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		}); err != nil {
			fail("scan: %v", err)
		}
		// Secondary consistency: every live key reachable through its
		// secondary key with the same value; no dead key reachable.
		for k := 0; k < 24; k++ {
			key := fmt.Sprintf("k%02d", k)
			want, live := got[key]
			if si == nil {
				if live {
					fail("key %s live but secondary index not recovered", key)
				}
				continue
			}
			v, err := txn.GetBySecondary(si, skeyFor(key))
			if live {
				if err != nil {
					fail("GetBySecondary(%s): %v (want %q)", key, err, want)
				}
				if string(v) != want {
					fail("GetBySecondary(%s) = %q, want %q", key, v, want)
				}
			} else if !errors.Is(err, engine.ErrNotFound) {
				fail("GetBySecondary(%s) on dead key: v=%q err=%v", key, v, err)
			}
		}
		txn.Abort()
	} else if si != nil {
		fail("secondary index recovered without its table")
	}

	// Prefix consistency: the recovered state must equal some committed
	// prefix (scan from the newest so the matched prefix is maximal).
	match := -1
	for i := len(states) - 1; i >= 0; i-- {
		if mapsEqual(got, states[i]) {
			match = i
			break
		}
	}
	if match < 0 {
		fail("recovered state matches no committed prefix: %v", got)
	}
	// Group-commit honesty: acked transactions must be included.
	if match < floor {
		fail("recovered prefix %d < acked floor %d", match, floor)
	}
}

// TestCrashPointSweep is the engine's crash-point sweep (≥ 50 points,
// including seeded torn-write variants of every flusher and checkpoint
// write).
func TestCrashPointSweep(t *testing.T) {
	seed := uint64(sweepSeed)

	// Record the workload twice: identical traces and states prove the
	// schedule is a pure function of the seed (no wall-clock, goroutine or
	// map-order dependence), which is what makes seed+point reproduction
	// sound.
	rec1 := faultfs.NewRecorder(wal.NewMemStorage())
	states, acks := runSweepWorkload(t, seed, rec1)
	rec2 := faultfs.NewRecorder(wal.NewMemStorage())
	states2, _ := runSweepWorkload(t, seed, rec2)
	tr := rec1.Ops()
	if err := traceDiff(tr, rec2.Ops()); err != nil {
		t.Fatalf("workload trace not deterministic: %v", err)
	}
	if len(states) != len(states2) {
		t.Fatalf("workload commits not deterministic: %d vs %d", len(states), len(states2))
	}

	// Window coverage: Points puts a pure crash point at every operation
	// boundary, so the sweep provably exercises a crash inside each
	// checkpoint-publication and truncation window iff the trace records the
	// operations that delimit them. Require all three: the temp-blob write
	// (a torn blob must be ignored by recovery), the publishing rename (a
	// crash right after it must adopt the blob), and the segment unlink (a crash mid-truncation leaves a log with a
	// removed prefix that recovery must accept).
	var ckptTmpWrites, ckptRenames, segRemoves int
	for _, op := range tr {
		switch {
		case op.Kind == faultfs.OpWrite && strings.HasPrefix(op.Name, "ckpt-") && strings.HasSuffix(op.Name, ".tmp"):
			ckptTmpWrites++
		case op.Kind == faultfs.OpRename && strings.HasPrefix(op.NewName, "ckpt-"):
			ckptRenames++
		case op.Kind == faultfs.OpRemove && strings.HasPrefix(op.Name, "log-"):
			segRemoves++
		}
	}
	if ckptTmpWrites == 0 || ckptRenames == 0 || segRemoves == 0 {
		t.Fatalf("trace misses a crash window: %d ckpt tmp writes, %d ckpt renames, %d segment removes",
			ckptTmpWrites, ckptRenames, segRemoves)
	}

	points := faultfs.Points(tr, seed, 0)
	if len(points) < 50 {
		t.Fatalf("only %d crash points (trace %d ops, %d writes); need ≥ 50",
			len(points), len(tr), tr.Writes())
	}
	torn := 0
	for _, p := range points {
		if p.Torn {
			torn++
		}
		checkSweepPoint(t, seed, tr, p, states, acks)
	}
	t.Logf("seed %#x: swept %d crash points (%d torn) over a %d-op trace, %d commits, %d acks",
		seed, len(points), torn, len(tr), len(states)-1, len(acks))
}

// traceDiff reports the first difference between two traces.
func traceDiff(a, b faultfs.Trace) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Name != y.Name || x.Off != y.Off || !bytes.Equal(x.Data, y.Data) {
			return fmt.Errorf("op %d differs: {%v %s off=%d len=%d} vs {%v %s off=%d len=%d}",
				i, x.Kind, x.Name, x.Off, len(x.Data), y.Kind, y.Name, y.Off, len(y.Data))
		}
	}
	return nil
}

// TestCheckpointSurvivesInjectedError: an I/O error while writing the
// checkpoint blob fails the checkpoint cleanly — the engine keeps running,
// a later checkpoint succeeds, and recovery never sees the dead blob.
func TestCheckpointSurvivesInjectedError(t *testing.T) {
	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{})
	db, err := Open(sweepConfig(inj))
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 10; i++ {
		put(t, db, tbl, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	// Fail the checkpoint blob's Create, which follows the begin record's
	// write and sync.
	inj.SetFailOp(inj.OpCount() + 3)
	if err := db.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("checkpoint over failing storage: %v", err)
	}

	// The engine is still live: more commits and a clean checkpoint.
	put(t, db, tbl, "after", "crash")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Recover(sweepConfig(inner.Crash()))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	txn := db2.BeginTxn(0)
	if v, err := txn.Get(db2.OpenTable("t"), []byte("after")); err != nil || string(v) != "crash" {
		t.Fatalf("recovered after=%q err=%v", v, err)
	}
	txn.Abort()
}
