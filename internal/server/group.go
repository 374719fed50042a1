package server

import (
	"sync/atomic"
	"time"

	"ermia/internal/proto"
)

// commitAck is one commit waiting for its durability acknowledgment.
type commitAck struct {
	sess  *session
	reqID uint64

	// typ is the request type the released acknowledgment answers: commit,
	// or a shard prepare/decide riding the same committer — that is the
	// "piggybacked on the group committer" design.
	typ byte

	// count marks acknowledgments that represent an acked write commit and
	// therefore belong in the per-epoch single-writer audit. Prepare acks
	// (durable but undecided) leave it false.
	count bool

	// epoch is the primary epoch observed at commit time; counted per epoch
	// on a successful acknowledgment so the dual-primary audit can prove
	// epochs never interleave acked writes.
	epoch uint64

	// deadline bounds how long this commit may wait for acknowledgment
	// (zero = unbounded by the client; SyncRepl always caps it).
	deadline time.Time

	// target is the log offset a replica must acknowledge before this
	// commit's OK is released. Zero when SyncRepl is off (or no log),
	// which is instantly satisfied.
	target uint64
}

// groupCommitter amortizes commit durability across connections. Sessions
// enqueue logically-committed transactions and move on (their pipelines
// keep flowing; responses are matched by request id, so a commit ack may
// overtake later responses). The committer gathers everything that has
// accumulated, issues ONE WaitDurable — during which the next batch
// accumulates behind it — and releases every gathered acknowledgment at
// once. No timer and no artificial batching window: the device sync itself
// is the batching window, which is classic group commit.
//
// With SyncRepl the committer additionally holds each OK until a replica
// has acknowledged the commit's log offset (semi-synchronous replication):
// local durability alone is not enough to ack, which is what makes acked
// commits survive primary failover and fences a deposed primary whose
// subscriber is gone — its pending acks expire with StatusDeadlineExceeded
// instead of lying to the client.
type groupCommitter struct {
	srv  *Server
	ch   chan commitAck
	stop chan struct{}
	done chan struct{}

	batches atomic.Uint64
	commits atomic.Uint64
}

func newGroupCommitter(srv *Server) *groupCommitter {
	return &groupCommitter{
		srv:  srv,
		ch:   make(chan commitAck, 4*cap(srv.slots)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// enqueue hands a committed transaction's acknowledgment to the committer.
// The caller must hold the session's async-response count (wg) so teardown
// cannot finish the connection underneath the eventual ack.
func (g *groupCommitter) enqueue(a commitAck) { g.ch <- a }

func (g *groupCommitter) run() {
	defer close(g.done)
	var batch []commitAck
	for {
		var first commitAck
		select {
		case first = <-g.ch:
		case <-g.stop:
			// Sessions have all exited by the time the server stops us;
			// this drain only covers a shutdown race.
			for {
				select {
				case a := <-g.ch:
					g.flush([]commitAck{a})
				default:
					return
				}
			}
		}
		batch = append(batch[:0], first)
	gather:
		for {
			select {
			case a := <-g.ch:
				batch = append(batch, a)
			default:
				break gather
			}
		}
		g.flush(batch)
	}
}

// flush makes the batch durable with a single wait and releases every
// acknowledgment — immediately when SyncRepl is off, otherwise once a
// replica has acknowledged each commit's log offset.
func (g *groupCommitter) flush(batch []commitAck) {
	err := g.srv.dur.WaitDurable()
	g.batches.Add(1)
	g.commits.Add(uint64(len(batch)))
	if err != nil || !g.srv.cfg.SyncRepl {
		st, detail := proto.StatusOf(err)
		for _, a := range batch {
			g.respondOne(a, st, detail)
		}
		return
	}
	g.awaitReplicated(batch)
}

// awaitReplicated holds locally-durable commits until the replica ack
// watermark reaches each one's target offset. Individual commits expire at
// their deadline (StatusDeadlineExceeded: outcome indeterminate, the bytes
// ARE in the local log); server shutdown releases the remainder as
// StatusShuttingDown so teardown never deadlocks behind a dead subscriber.
func (g *groupCommitter) awaitReplicated(batch []commitAck) {
	pending := batch
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for len(pending) > 0 {
		acked := g.srv.replAcked.Load()
		now := time.Now()
		rest := pending[:0]
		for _, a := range pending {
			switch {
			case acked >= a.target:
				g.respondOne(a, proto.StatusOK, "")
			case !a.deadline.IsZero() && now.After(a.deadline):
				g.respondOne(a, proto.StatusDeadlineExceeded,
					"commit durable locally but not yet replicated")
			default:
				rest = append(rest, a)
			}
		}
		pending = rest
		if len(pending) == 0 {
			return
		}
		select {
		case <-ticker.C:
		case <-g.srv.doneCh:
			for _, a := range pending {
				g.respondOne(a, proto.StatusShuttingDown, "server shutting down")
			}
			return
		}
	}
}

// respondOne releases a single commit acknowledgment with the given status,
// counting successful commits against their epoch. It appends the ack and
// wakes the session's flushAcks: the committer never waits on a write.
func (g *groupCommitter) respondOne(a commitAck, st proto.Status, detail string) {
	a.sess.add(a.typ, a.reqID, st, detail, nil)
	select {
	case a.sess.acked <- struct{}{}:
	default: // a wake-up is already pending
	}
	if st == proto.StatusOK && a.count {
		g.srv.noteCommit(a.epoch)
	}
	a.sess.wg.Done()
}

// close stops the committer; call only after every session has exited.
func (g *groupCommitter) close() {
	close(g.stop)
	<-g.done
}
