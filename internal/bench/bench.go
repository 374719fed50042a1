// Package bench is the workload harness behind every experiment in
// EXPERIMENTS.md: it runs N worker goroutines against an engine for a fixed
// duration, classifying each execution as commit, conflict abort, or
// intentional (user) abort, and recording per-transaction-type latency.
package bench

import (
	"fmt"
	"sync"
	"time"

	"ermia/internal/xrand"
)

// Exec runs one transaction on behalf of a worker and returns its type name
// and outcome error (nil = committed).
type Exec func(worker int, rng *xrand.Rand) (kind string, err error)

// Options configures a harness run.
type Options struct {
	Workers  int
	Duration time.Duration
	Exec     Exec
	// IsUserAbort classifies intentional benchmark rollbacks (e.g. TPC-C's
	// 1% NewOrder abort); they count as neither commit nor conflict.
	IsUserAbort func(error) bool
}

// KindStats aggregates outcomes for one transaction type.
type KindStats struct {
	Attempts   uint64
	Commits    uint64
	Aborts     uint64 // concurrency-conflict aborts
	UserAborts uint64

	latSum   time.Duration
	latMin   time.Duration
	latMax   time.Duration
	latCount uint64
}

// AbortRatio returns conflict aborts / attempts (excluding user aborts).
func (k *KindStats) AbortRatio() float64 {
	att := k.Attempts - k.UserAborts
	if att == 0 {
		return 0
	}
	return float64(k.Aborts) / float64(att)
}

// MeanLatency returns the average committed-execution latency.
func (k *KindStats) MeanLatency() time.Duration {
	if k.latCount == 0 {
		return 0
	}
	return k.latSum / time.Duration(k.latCount)
}

// MinLatency returns the fastest committed execution.
func (k *KindStats) MinLatency() time.Duration { return k.latMin }

// MaxLatency returns the slowest committed execution.
func (k *KindStats) MaxLatency() time.Duration { return k.latMax }

func (k *KindStats) record(lat time.Duration, outcome int) {
	k.Attempts++
	switch outcome {
	case outcomeCommit:
		k.Commits++
		k.latSum += lat
		k.latCount++
		if k.latMin == 0 || lat < k.latMin {
			k.latMin = lat
		}
		if lat > k.latMax {
			k.latMax = lat
		}
	case outcomeAbort:
		k.Aborts++
	case outcomeUser:
		k.UserAborts++
	}
}

func (k *KindStats) merge(o *KindStats) {
	k.Attempts += o.Attempts
	k.Commits += o.Commits
	k.Aborts += o.Aborts
	k.UserAborts += o.UserAborts
	k.latSum += o.latSum
	k.latCount += o.latCount
	if k.latMin == 0 || (o.latMin > 0 && o.latMin < k.latMin) {
		k.latMin = o.latMin
	}
	if o.latMax > k.latMax {
		k.latMax = o.latMax
	}
}

const (
	outcomeCommit = iota
	outcomeAbort
	outcomeUser
)

// Result summarizes a harness run.
type Result struct {
	Duration time.Duration
	Kinds    map[string]*KindStats
	Err      error // first non-retryable workload error, if any
}

// TotalCommits sums commits across kinds.
func (r *Result) TotalCommits() uint64 {
	var n uint64
	for _, k := range r.Kinds {
		n += k.Commits
	}
	return n
}

// Throughput returns committed transactions per second.
func (r *Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.TotalCommits()) / r.Duration.Seconds()
}

// Run drives Options.Workers goroutines until the deadline.
func Run(opts Options) Result {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	isUser := opts.IsUserAbort
	if isUser == nil {
		isUser = func(error) bool { return false }
	}

	type workerResult struct {
		kinds map[string]*KindStats
		err   error
	}
	results := make([]workerResult, opts.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(opts.Duration)

	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New2(uint64(id)+1, 0xBEEF)
			kinds := map[string]*KindStats{}
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				kind, err := opts.Exec(id, rng)
				lat := time.Since(t0)
				ks := kinds[kind]
				if ks == nil {
					ks = &KindStats{}
					kinds[kind] = ks
				}
				switch {
				case err == nil:
					ks.record(lat, outcomeCommit)
				case isUser(err):
					ks.record(lat, outcomeUser)
				case isRetryable(err):
					ks.record(lat, outcomeAbort)
				default:
					results[id] = workerResult{kinds: kinds,
						err: fmt.Errorf("%s (worker %d): %w", kind, id, err)}
					return
				}
			}
			results[id] = workerResult{kinds: kinds}
		}(w)
	}
	wg.Wait()
	out := Result{Duration: time.Since(start), Kinds: map[string]*KindStats{}}
	for _, wr := range results {
		if wr.err != nil && out.Err == nil {
			out.Err = wr.err
		}
		for name, ks := range wr.kinds {
			if agg := out.Kinds[name]; agg != nil {
				agg.merge(ks)
			} else {
				cp := *ks
				out.Kinds[name] = &cp
			}
		}
	}
	return out
}
