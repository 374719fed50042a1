package silo

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// Crash-point sweep for the Silo engine's wal-framed log: record the storage
// trace of a seeded workload, then crash at every operation boundary (plus
// seeded torn-write points inside each segment write), recover, and require
//
//  1. prefix consistency — the recovered state equals the state after some
//     prefix of the committed transactions (each commit is one checksummed
//     wal block, so a torn tail must cut cleanly at the last whole block,
//     never surface a half-applied transaction);
//  2. group-commit honesty — every transaction acked by an explicit
//     WaitDurable before the crash point is recovered.
//
// The epoch ticker is parked (EpochInterval = 1h) and flushes are explicit,
// so the trace is a pure function of the seed and any failure reproduces
// from seed + point alone.

const siloSweepSeed = 0x51105

type ackPoint struct {
	traceLen int
	commits  int
}

func ackFloor(acks []ackPoint, k int) int {
	floor := 0
	for _, a := range acks {
		if a.traceLen <= k && a.commits > floor {
			floor = a.commits
		}
	}
	return floor
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sweepSiloConfig(st wal.Storage) Config {
	return Config{EpochInterval: time.Hour, Storage: st}
}

// runSiloSweepWorkload drives a deterministic single-worker workload,
// flushing the log explicitly as the group-commit acknowledgement.
func runSiloSweepWorkload(t testing.TB, seed uint64, rec *faultfs.Recorder) ([]map[string]string, []ackPoint) {
	t.Helper()
	db, err := Open(sweepSiloConfig(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t")

	rng := xrand.New2(seed, 0x51E0)
	model := map[string]string{}
	states := []map[string]string{copyMap(model)}
	var acks []ackPoint

	const nTxns = 180
	for i := 0; i < nTxns; i++ {
		txn := db.Begin(0)
		staged := copyMap(model)
		nOps := 1 + rng.Intn(3)
		for j := 0; j < nOps; j++ {
			key := fmt.Sprintf("k%02d", rng.Intn(24))
			val := fmt.Sprintf("t%03d-o%d", i, j)
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
				if err := txn.Insert(tbl, []byte(key), []byte(val)); err != nil {
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
		// Group-commit acknowledgement: an explicit flush, playing the role
		// of the parked epoch ticker's per-epoch flush.
		if rng.Intn(5) == 0 {
			if err := db.WaitDurable(); err != nil {
				t.Fatalf("txn %d sync: %v", i, err)
			}
			acks = append(acks, ackPoint{len(rec.Ops()), len(states) - 1})
		}
	}
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	acks = append(acks, ackPoint{len(rec.Ops()), len(states) - 1})
	return states, acks
}

func checkSiloSweepPoint(t *testing.T, seed uint64, tr faultfs.Trace, p faultfs.Point, states []map[string]string, acks []ackPoint) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %#x, %v: %s", seed, p, fmt.Sprintf(format, args...))
	}
	img, err := faultfs.CrashImage(tr, p)
	if err != nil {
		fail("building crash image: %v", err)
	}
	db, err := Recover(sweepSiloConfig(img))
	if err != nil {
		fail("recovery: %v", err)
	}
	defer db.Close()

	got := map[string]string{}
	if tbl := db.OpenTable("t"); tbl != nil {
		txn := db.Begin(0)
		if err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		}); err != nil {
			fail("scan: %v", err)
		}
		txn.Abort()
	}

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
	if floor := ackFloor(acks, p.Index); match < floor {
		fail("recovered prefix %d < acked floor %d", match, floor)
	}
}

// TestCrashPointSweep sweeps ≥ 50 crash and torn-write points of the Silo
// log.
func TestCrashPointSweep(t *testing.T) {
	seed := uint64(siloSweepSeed)

	rec1 := faultfs.NewRecorder(wal.NewMemStorage())
	states, acks := runSiloSweepWorkload(t, seed, rec1)
	rec2 := faultfs.NewRecorder(wal.NewMemStorage())
	states2, _ := runSiloSweepWorkload(t, seed, rec2)
	tr := rec1.Ops()
	if err := siloTraceDiff(tr, rec2.Ops()); err != nil {
		t.Fatalf("workload trace not deterministic: %v", err)
	}
	if len(states) != len(states2) {
		t.Fatalf("workload commits not deterministic: %d vs %d", len(states), len(states2))
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
		checkSiloSweepPoint(t, seed, tr, p, states, acks)
	}
	t.Logf("seed %#x: swept %d crash points (%d torn) over a %d-op trace, %d commits, %d acks",
		seed, len(points), torn, len(tr), len(states)-1, len(acks))
}

func siloTraceDiff(a, b faultfs.Trace) error {
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
