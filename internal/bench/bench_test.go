package bench

import (
	"errors"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/xrand"
)

func TestRunCountsOutcomes(t *testing.T) {
	userErr := errors.New("user abort")
	i := 0
	res := Run(Options{
		Workers:  1,
		Duration: 50 * time.Millisecond,
		Exec: func(worker int, rng *xrand.Rand) (string, error) {
			i++
			switch i % 4 {
			case 0:
				return "a", engine.ErrWriteConflict
			case 1:
				return "a", nil
			case 2:
				return "b", userErr
			default:
				return "b", nil
			}
		},
		IsUserAbort: func(err error) bool { return errors.Is(err, userErr) },
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	a, b := res.Kinds["a"], res.Kinds["b"]
	if a == nil || b == nil {
		t.Fatal("missing kinds")
	}
	if a.Commits == 0 || a.Aborts == 0 {
		t.Errorf("a: %+v", a)
	}
	if b.Commits == 0 || b.UserAborts == 0 {
		t.Errorf("b: commits=%d user=%d", b.Commits, b.UserAborts)
	}
	if a.Aborts > 0 && a.AbortRatio() <= 0 {
		t.Error("abort ratio zero despite aborts")
	}
	if res.Throughput() <= 0 {
		t.Error("throughput zero")
	}
}

func TestRunStopsOnFatalError(t *testing.T) {
	fatal := errors.New("boom")
	res := Run(Options{
		Workers:  2,
		Duration: 5 * time.Second, // must stop far earlier
		Exec: func(worker int, rng *xrand.Rand) (string, error) {
			return "x", fatal
		},
	})
	if !errors.Is(res.Err, fatal) {
		t.Fatalf("err = %v", res.Err)
	}
}

func TestLatencyStats(t *testing.T) {
	res := Run(Options{
		Workers:  1,
		Duration: 30 * time.Millisecond,
		Exec: func(worker int, rng *xrand.Rand) (string, error) {
			time.Sleep(time.Millisecond)
			return "slow", nil
		},
	})
	k := res.Kinds["slow"]
	if k.MeanLatency() < 500*time.Microsecond {
		t.Errorf("mean latency %v implausible for 1ms sleeps", k.MeanLatency())
	}
	if k.MinLatency() == 0 || k.MaxLatency() < k.MinLatency() {
		t.Errorf("min=%v max=%v", k.MinLatency(), k.MaxLatency())
	}
}
