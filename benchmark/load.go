package main

import (
	"fmt"
	"sync"
	"time"

	"ermia/internal/engine"
	"ermia/internal/xrand"
)

// A caller is one closed-loop client: it draws an operation, attempts it
// until it commits, and only then draws the next.
type caller interface {
	// next draws the next operation's inputs and returns its class.
	next() int
	// try makes one attempt at the drawn operation. A retryable error is
	// tried again with the same inputs.
	try() error
}

const (
	// maxAttempts is the retry budget of one operation.
	maxAttempts = 10
	// failureCap stops a worker whose operations keep failing (a dead
	// connection would otherwise spin through the whole run).
	failureCap = 1000
)

// loadResult is what the measured time produced, merged over the workers and,
// in the untraced run, over the passes.
type loadResult struct {
	measured time.Duration
	commits  [maxClasses]uint64 // committed operations, by class
	lat      Hist               // latency of committed operations, ns
	// attempted counts operations that completed inside the measured time;
	// failed those that ended without a commit (retry budget exhausted, or a
	// non-retryable error, which is also counted in fatal); rollbacks are the
	// workload's intentional aborts, which count as successes.
	attempted, failed, fatal, rollbacks, retries uint64
	// allCommits counts commits from the first warm-up operation on, for
	// checks against counters that cannot be reset.
	allCommits uint64
	firstErr   error
}

func (r *loadResult) merge(o *loadResult) {
	for c := range r.commits {
		r.commits[c] += o.commits[c]
	}
	r.lat.Merge(&o.lat)
	r.measured += o.measured
	r.attempted += o.attempted
	r.failed += o.failed
	r.fatal += o.fatal
	r.rollbacks += o.rollbacks
	r.retries += o.retries
	r.allCommits += o.allCommits
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// committed returns the commits of the given classes (all when nil).
func (r *loadResult) committed(classes []int) uint64 {
	var n uint64
	if classes == nil {
		for _, c := range r.commits {
			n += c
		}
		return n
	}
	for _, c := range classes {
		n += r.commits[c]
	}
	return n
}

// rate returns commits per second of the given classes over the measured
// time.
func (r *loadResult) rate(classes []int) float64 {
	return float64(r.committed(classes)) / r.measured.Seconds()
}

// runLoad drives the clients for warm (unrecorded) and then measure. atStart
// and atEnd run on the caller's goroutine at the edges of the measured time.
func runLoad(callers []caller, seed uint64, warm, measure time.Duration, isRollback func(error) bool, atStart, atEnd func()) *loadResult {
	start := time.Now().Add(warm)
	end := start.Add(measure)
	results := make([]*loadResult, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(id int, c caller) {
			defer wg.Done()
			res := &loadResult{}
			results[id] = res
			backoff := xrand.New2(seed, uint64(id)+0xB0FF)
			for res.failed < failureCap {
				class := c.next()
				t0 := time.Now()
				var err error
				attempts := 0
				for {
					attempts++
					err = c.try()
					if err == nil || isRollback(err) || attempts == maxAttempts ||
						engine.Classify(err) != engine.OutcomeConflict {
						break
					}
					if d := engine.DefaultRetryPolicy.Backoff(attempts, backoff); d > 0 {
						time.Sleep(d)
					}
				}
				done := time.Now()
				if err == nil {
					res.allCommits++
				}
				if done.Before(start) {
					continue
				}
				if !done.Before(end) {
					return
				}
				res.attempted++
				res.retries += uint64(attempts - 1)
				switch {
				case err == nil:
					res.commits[class]++
					res.lat.Record(int64(done.Sub(t0)))
				case isRollback(err):
					res.rollbacks++
				default:
					res.failed++
					if engine.Classify(err) != engine.OutcomeConflict {
						res.fatal++
					}
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("worker %d: %w", id, err)
					}
				}
			}
		}(i, c)
	}
	time.Sleep(time.Until(start))
	atStart()
	time.Sleep(time.Until(end))
	atEnd()
	wg.Wait()
	total := &loadResult{}
	for _, r := range results {
		total.merge(r)
	}
	total.measured = measure
	return total
}
