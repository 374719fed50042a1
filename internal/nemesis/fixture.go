package nemesis

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/faultconn"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// Outcome is what every nemesis run reports, whatever its topology. A clean
// run has len(Violations) == 0; harness-level failures (setup, a node that
// cannot be brought back) surface as the run's error instead.
type Outcome struct {
	Seed       uint64
	Schedule   []string // the executed fault schedule, deterministic per seed
	Acked      int      // workload transactions positively acknowledged to a worker
	Attempts   int      // transaction function invocations (retries included)
	Violations []string
}

// topology is what one cluster shape adds to the fixture: how its nodes
// crash and come back, what its workers do, and what must hold at the end.
type topology interface {
	// txn returns the body of worker w's transaction seq, called once per
	// retry loop over seq. An indeterminate attempt may have committed, so
	// running the body again must leave the same state as running it once.
	txn(w, seq int) func(engine.Txn) error
	// fault applies a node fault from the schedule and returns once the
	// node is back; an error stops the schedule.
	fault(ev event) error
	// verify runs after the chaos window on the healed network: it brings
	// every node back and checks the end-state invariants.
	verify() error
}

// fixture is what both harnesses share: the fault network, the schedule
// executor, the workers' retry loops and the healed-network check loop.
type fixture struct {
	seed uint64
	net  *faultconn.Network
	eps  []string // every endpoint: an isolated one is healed against each

	acked    []atomic.Uint64 // per worker: how many of its transactions acked
	attempts atomic.Int64

	mu     sync.Mutex // guards vios and served
	vios   []string
	served map[string][]*server.Server // every server started, by endpoint
}

func newFixture(seed uint64, workers int, eps ...string) *fixture {
	return &fixture{
		seed:   seed,
		net:    faultconn.NewNetwork(seed),
		eps:    eps,
		acked:  make([]atomic.Uint64, workers),
		served: map[string][]*server.Server{},
	}
}

func (f *fixture) violate(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vios = append(f.vios, fmt.Sprintf(format, args...))
}

// dialer dials through the fault network as endpoint from.
func (f *fixture) dialer(from string) func(string, time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return f.net.DialTimeout(from, addr, timeout)
	}
}

// serve starts a server for cfg listening as endpoint ep.
func (f *fixture) serve(ep string, cfg server.Config) (*server.Server, error) {
	cfg.WriteTimeout, cfg.IdleTimeout = 2*time.Second, 2*time.Second
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := f.net.Listen(ep)
	if err != nil {
		srv.Close()
		return nil, err
	}
	go srv.Serve(ln)
	f.mu.Lock()
	f.served[ep] = append(f.served[ep], srv)
	f.mu.Unlock()
	return srv, nil
}

// servers returns every server started as endpoint ep, oldest first.
func (f *fixture) servers(ep string) []*server.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*server.Server(nil), f.served[ep]...)
}

// close closes every server the fixture started.
func (f *fixture) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, srvs := range f.served {
		for _, srv := range srvs {
			srv.Close()
		}
	}
}

// run executes evs while workers run top's transactions on db for the
// chaos window, each load function beside them. Then the network heals and
// top verifies; out gets what the run did and found.
func (f *fixture) run(top topology, db engine.DB, evs []event, window time.Duration, out *Outcome, load ...func(deadline time.Time)) error {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for w := range f.acked {
		wg.Add(1)
		go func() { defer wg.Done(); f.work(top, db, w, deadline) }()
	}
	for _, l := range load {
		wg.Add(1)
		go func() { defer wg.Done(); l(deadline) }()
	}
	f.execute(top, evs)
	wg.Wait()

	f.net.HealAll()
	err := top.verify()

	out.Seed = f.seed
	for _, ev := range evs {
		out.Schedule = append(out.Schedule, ev.desc)
	}
	for w := range f.acked {
		out.Acked += int(f.acked[w].Load())
	}
	out.Attempts = int(f.attempts.Load())
	f.mu.Lock()
	out.Violations = append([]string(nil), f.vios...)
	f.mu.Unlock()
	return err
}

// work runs worker w's transactions until the deadline. The acked frontier
// advances only on a nil return from the retry loop, which is exactly the
// harness's definition of "acknowledged".
func (f *fixture) work(top topology, db engine.DB, w int, deadline time.Time) {
	policy := engine.RetryPolicy{
		BaseDelay: time.Millisecond,
		MaxDelay:  25 * time.Millisecond,
		Jitter:    0.5,
		Seed:      f.seed*1099511628211 + uint64(w) + 1,
	}
	for seq := 0; time.Now().Before(deadline); {
		body := top.txn(w, seq)
		ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(250*time.Millisecond))
		err := policy.Run(ctx, db, w, func(txn engine.Txn) error {
			f.attempts.Add(1)
			return body(txn)
		})
		cancel()
		if err == nil {
			seq++
			f.acked[w].Store(uint64(seq))
			continue
		}
		// Errors are expected mid-chaos. The same seq is retried, so an
		// indeterminate earlier attempt is overwritten or detected, never
		// skipped. The pause keeps a dead cluster from busy-spinning.
		time.Sleep(2 * time.Millisecond)
	}
}

// execute replays the pre-generated schedule. Faults with a duration heal
// inline, so at most one durable fault is active at a time; instantaneous
// cuts overlap freely with the workload.
func (f *fixture) execute(top topology, evs []event) {
	for _, ev := range evs {
		time.Sleep(ev.gap)
		switch ev.act {
		case actCut:
			f.net.CutAfter(ev.from, ev.to, ev.nbytes)
		case actPartition:
			f.net.Partition(ev.from, ev.to)
			time.Sleep(ev.dur)
			f.net.Heal(ev.from, ev.to)
		case actIsolate:
			f.net.Isolate(ev.from)
			time.Sleep(ev.dur)
			for _, ep := range f.eps {
				f.net.Heal(ev.from, ep)
			}
		case actLatency:
			f.net.SetLatency(ev.from, ev.to, ev.lat, ev.lat/2)
			time.Sleep(ev.dur)
			f.net.SetLatency(ev.from, ev.to, 0, 0)
		default:
			if err := top.fault(ev); err != nil {
				f.violate("harness: %s: %v", ev.desc, err)
				return
			}
		}
	}
}

// check runs fn until it returns nil, for at most ten seconds: the cluster
// has just healed. Only the successful run's reports become violations.
func (f *fixture) check(what string, fn func(report func(format string, args ...any)) error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var found []string
		err := fn(func(format string, args ...any) {
			found = append(found, fmt.Sprintf(format, args...))
		})
		if err == nil {
			f.mu.Lock()
			f.vios = append(f.vios, found...)
			f.mu.Unlock()
			return
		}
		if time.Now().After(deadline) {
			f.violate("harness: %s never succeeded: %v", what, err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// smallWAL logs to st in 4 MiB segments through a 1 MiB buffer.
func smallWAL(st wal.Storage) wal.Config {
	return wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st}
}
