package nemesis

import (
	"testing"
	"time"
)

// TestShardNemesisSeeds runs the shard-nemesis harness across fixed seeds.
// Each seed replays a distinct deterministic schedule of partitions, cuts,
// participant crashes back to the last sync, and coordinator crashes
// injected between prepare and decision, and must finish with zero invariant
// violations: balance total conserved (no torn cross-shard commit), no acked
// transfer lost, and the decision log fully drained after healing.
func TestShardNemesisSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("shard nemesis seeds skipped in -short")
	}
	for s := uint64(1); s <= 16; s++ {
		seed := s
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			res, err := RunShard(ShardConfig{Seed: seed, Duration: 900 * time.Millisecond})
			if err != nil {
				t.Fatalf("seed %d: harness: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if t.Failed() {
				t.Logf("seed %d schedule (replay with RunShard(ShardConfig{Seed: %d, ...})):", seed, seed)
				for i, ev := range res.Schedule {
					t.Logf("  %3d %s", i, ev)
				}
			}
			t.Logf("seed %d: acked=%d attempts=%d indoubt=%d shardcrashes=%d coordcrashes=%d resolved=%d",
				seed, res.Acked, res.Attempts, res.InDoubt, res.ShardCrashes, res.CoordCrashes, res.Resolved)
		})
	}
}

// TestShardScheduleDeterministic: the same seed generates the identical
// shard fault schedule — what makes a failing seed replayable.
func TestShardScheduleDeterministic(t *testing.T) {
	a := genShardSchedule(7, 2*time.Second)
	b := genShardSchedule(7, 2*time.Second)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].desc != b[i].desc || a[i].gap != b[i].gap || a[i].dur != b[i].dur {
			t.Fatalf("schedule diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	// The pinned seeds must keep the faults their runs exist for, or
	// TestShardNemesisCoordinatorCrashes and TestShardNemesisUnsyncedApply
	// test nothing.
	count := func(seed uint64) map[action]int {
		n := map[action]int{}
		for _, ev := range genShardSchedule(seed, pinnedDuration) {
			n[ev.act]++
		}
		return n
	}
	if n := count(coordCrashSeed); n[actCoordCrashPrepare] == 0 || n[actCoordCrashDecision] == 0 {
		t.Errorf("seed %d: %d coordinator crashes after prepare and %d after decision, want both > 0",
			coordCrashSeed, n[actCoordCrashPrepare], n[actCoordCrashDecision])
	}
	if n := count(unsyncedCrashSeed)[actShardCrashUnsynced]; n < 3 {
		t.Errorf("seed %d: %d shard crashes hold their syncs, want >= 3", unsyncedCrashSeed, n)
	}
}

// TestShardNemesisCoordinatorCrashes pins a seed whose schedule includes
// coordinator crashes on both sides of the commit point: the run must
// actually exercise in-doubt recovery (decisions resolved after the crash)
// and still verify clean — the acceptance scenario for 2PC under fire.
func TestShardNemesisCoordinatorCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("shard nemesis skipped in -short")
	}
	res, err := RunShard(ShardConfig{Seed: coordCrashSeed, Duration: pinnedDuration})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.CoordCrashes == 0 {
		t.Errorf("seed %d scheduled no coordinator crashes; pick a different pinned seed", coordCrashSeed)
	}
	t.Logf("coordinator-crash run: acked=%d coordcrashes=%d resolved=%d shardcrashes=%d",
		res.Acked, res.CoordCrashes, res.Resolved, res.ShardCrashes)
}

// coordCrashSeed is a seed whose generated schedule contains coordinator
// crashes both after prepare and after the logged decision.
const coordCrashSeed = 3

// TestShardNemesisUnsyncedApply pins a seed that crashes participants with
// their syncs held back: a worker has been told "committed" on on-apply
// decide acks, and the participant then loses the commit. The transfer's
// marker must still be there at the end and the balances must add up — the
// router brings the commit back from the prepare record before anyone reads.
func TestShardNemesisUnsyncedApply(t *testing.T) {
	if testing.Short() {
		t.Skip("shard nemesis skipped in -short")
	}
	res, err := RunShard(ShardConfig{Seed: unsyncedCrashSeed, Duration: pinnedDuration})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.UnsyncedCrashes == 0 {
		t.Errorf("seed %d: no participant crash caught a commit between its apply-ack and the sync (schedule %q)", unsyncedCrashSeed, res.Schedule)
	}
	t.Logf("unsynced-apply run: acked=%d shardcrashes=%d unsynced=%d resolved=%d",
		res.Acked, res.ShardCrashes, res.UnsyncedCrashes, res.Resolved)
}

// unsyncedCrashSeed is a seed whose schedule crashes participants with their
// syncs held three times.
const unsyncedCrashSeed = 24
