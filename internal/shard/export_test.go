package shard

import (
	"sync/atomic"
	"time"
)

// Crash abandons the router as a process death would: connections and log
// are closed, no queued confirmation is drained, nothing is resolved.
func (r *Router) Crash() { r.shutdown(false) }

// AdoptPrepared re-runs the orphan search NewRouter ran on shard.
func (r *Router) AdoptPrepared(shard int) error { return r.adoptPrepared(shard) }

// Pending is how many transactions the decision log still answers for.
func (r *Router) Pending() int {
	r.dlog.mu.Lock()
	defer r.dlog.mu.Unlock()
	return len(r.dlog.pending)
}

// ModelDecisionLogSync puts the decision log on a modelled device: every
// forced write takes delay instead of the file's own fsync. It returns the
// count of them.
func (r *Router) ModelDecisionLogSync(delay time.Duration) *atomic.Int64 {
	syncs := new(atomic.Int64)
	r.dlog.fmu.Lock()
	r.dlog.fsync = func() error {
		time.Sleep(delay)
		syncs.Add(1)
		return nil
	}
	r.dlog.fmu.Unlock()
	return syncs
}
