package shard

import "ermia/internal/wal"

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

// NewRouterOver is NewRouter with the decision log over st instead of the
// directory Options.DecisionLog names.
func NewRouterOver(m *Map, opts Options, st wal.Storage) (*Router, error) {
	return newRouter(m, opts, st)
}

// DecisionLogKinds decodes the decision log in dir and returns the kind
// byte of every record, in log order.
func DecisionLogKinds(dir string) (string, error) {
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		return "", err
	}
	var kinds []byte
	_, err = wal.Recover(st, 0, func(b wal.Block) error {
		r, err := decodeRecord(b)
		kinds = append(kinds, r.kind)
		return err
	})
	return string(kinds), err
}
