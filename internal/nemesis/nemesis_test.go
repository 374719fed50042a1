package nemesis

import (
	"testing"
	"time"
)

// TestNemesisSeeds runs the harness across many fixed seeds. Each seed
// replays a distinct deterministic fault schedule (partitions, cuts,
// crashes, primary isolation driving supervised promotion) and must finish
// with zero invariant violations: no acked commit lost, no snapshot
// monotonicity violation, no dual-primary epoch. The seed count and
// durations are sized so `go test -race ./internal/nemesis` stays a bounded
// smoke, not a soak; crank Duration up locally to hunt.
func TestNemesisSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis seeds skipped in -short")
	}
	seeds := make([]uint64, 0, 22)
	for s := uint64(1); s <= 22; s++ {
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Duration: 900 * time.Millisecond})
			if err != nil {
				t.Fatalf("seed %d: harness: %v", seed, err)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if t.Failed() {
				t.Logf("seed %d schedule (replay with Run(Config{Seed: %d, ...})):", seed, seed)
				for i, s := range res.Schedule {
					t.Logf("  %3d %s", i, s)
				}
			}
			t.Logf("seed %d: acked=%d attempts=%d reads=%d promotions=%d crashes=%d epoch=%d",
				seed, res.Acked, res.Attempts, res.Reads, res.Promotions, res.Crashes, res.FinalEpoch)
		})
	}
}

// TestNemesisScheduleDeterministic: the same seed generates the identical
// fault schedule — the property that makes a failing seed replayable.
func TestNemesisScheduleDeterministic(t *testing.T) {
	a := genSchedule(42, 2*time.Second)
	b := genSchedule(42, 2*time.Second)
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
	c := genSchedule(43, 2*time.Second)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].desc != c[i].desc {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}

	// The pinned promotion seed must keep a primary isolation longer than
	// the supervisor's silence timeout, or TestNemesisPromotionRun tests
	// nothing.
	var longest time.Duration
	for _, ev := range genSchedule(promotionSeed, pinnedDuration) {
		if ev.act == actIsolate && ev.from == epPrimary {
			longest = max(longest, ev.dur)
		}
	}
	if longest <= silenceTimeout {
		t.Errorf("seed %d: longest primary isolation %v, want > %v", promotionSeed, longest, silenceTimeout)
	}
}

// TestNemesisPromotionRun: a seed whose schedule isolates the primary long
// enough must drive a supervised promotion and still verify clean — the
// acceptance scenario (failover under fire, zero acked-commit loss, old
// primary provably fenced by the epoch audit).
func TestNemesisPromotionRun(t *testing.T) {
	if testing.Short() {
		t.Skip("nemesis skipped in -short")
	}
	// Seed chosen (see TestNemesisSeeds logs) so isolation exceeds the
	// supervisor's silence timeout early in the run.
	res, err := Run(Config{Seed: promotionSeed, Duration: pinnedDuration})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.Promotions == 0 {
		t.Skipf("seed %d did not promote in this run (timing); promotion coverage comes from TestNemesisSeeds", promotionSeed)
	}
	if res.FinalEpoch < 2 {
		t.Errorf("promoted but client never observed epoch >= 2 (got %d)", res.FinalEpoch)
	}
	t.Logf("promotion run: acked=%d promotions=%d crashes=%d epoch=%d",
		res.Acked, res.Promotions, res.Crashes, res.FinalEpoch)
}

// promotionSeed is a seed whose generated schedule contains an early
// primary isolation longer than the supervisor silence timeout.
const promotionSeed = 11

// pinnedDuration is the chaos window of the runs on a pinned seed.
const pinnedDuration = 1500 * time.Millisecond
