package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/wal"
)

// dlogEntry is one cross-shard transaction the coordinator is (or was)
// responsible for. It is born in memory when its commit starts, gains a
// durable commit decision (C) or stays presumed-abort, and dies once every
// participant has durably confirmed the decision (D, if anything was
// logged). gid is immutable; everything else is guarded by decisionLog.mu.
type dlogEntry struct {
	gid    []byte
	shards []int // participants
	todo   []int // participants that have not durably confirmed the decision
	commit bool  // a C record is durable; without one the decision is abort
	logged bool  // the log holds a record of it, so retiring it appends D
	// owned is set while the entry's commitCross is running: the decision
	// is not final until it returns, and resolvers keep their hands off.
	owned bool
	// applied is set once every participant has acknowledged the commit on
	// apply. Nothing is in doubt any more; the entry only awaits the
	// durable confirmations that let it retire (Router.queues).
	applied bool
}

// decisionLog is the coordinator's durable memory. Two-phase commit's
// in-doubt window is the span between the last prepare ack and the last
// participant learning the decision; if the coordinator dies inside it,
// participants sit prepared — locks held, outcome unknown — until someone
// tells them. The log closes that window with one forced write per
// transaction: the C record, which names the participants and is durable
// BEFORE any of them learns the decision. Aborts log nothing. A D record,
// never forced, retires an entry once every participant has durably
// confirmed. Recovery is presumed-abort: a gid with a C and no D is
// re-driven as commit; a prepared gid the log does not know — found by
// listing the participants' prepare records, see Router.adoptPrepared —
// cannot have committed anywhere and is aborted. Both re-deliveries are
// safe because participants treat decides idempotently.
//
// The log is a wal in SyncFlush mode, one block per record, so it shares
// the engine's framing, checksum and torn-tail rule. A block's payload is a
// kind byte and big-endian fields:
//
//	I id u64, n u64                   incarnation n of coordinator id opened the log (forced)
//	C gid [16], count u32, count×u32  commit decision and its participants (forced)
//	D gid [16]                        every participant confirmed; the entry is gone
//
// A gid is id ‖ sequence, both big-endian, so one coordinator's gids sort by
// age. Incarnation n numbers from n<<seqShift, above anything an earlier one
// can have used; that is what lets recovery tell its predecessors' orphans
// from its own live transactions without a record per transaction.
//
// With no storage the log is memory-only: resolution still works for the
// life of the process (the background resolver), but a coordinator crash
// orphans prepared transactions until an operator intervenes — production
// routers should always set Options.DecisionLog.
type decisionLog struct {
	id       uint64
	firstSeq uint64
	seq      atomic.Uint64

	log *wal.Manager // nil = memory-only

	mu      sync.Mutex
	pending map[string]*dlogEntry
}

// seqShift sizes an incarnation's sequence space: 2^40 transactions each,
// 2^24 incarnations.
const seqShift = 40

// gidLen is the size of every gid this coordinator mints.
const gidLen = 16

// openDecisionLog replays the log in st into the in-memory pending set,
// resumes it where the replay ended and records the new incarnation. A nil
// st means memory-only.
func openDecisionLog(st wal.Storage) (*decisionLog, error) {
	l := &decisionLog{pending: make(map[string]*dlogEntry)}
	var incarnation uint64
	var res *wal.RecoverResult
	if st != nil {
		var err error
		res, err = wal.Recover(st, 0, func(b wal.Block) error {
			r, err := decodeRecord(b)
			if err != nil {
				return err
			}
			switch r.kind {
			case 'I':
				if l.id == 0 {
					l.id = r.id
				}
				incarnation = max(incarnation, r.n)
			case 'C':
				gid := bytes.Clone(r.gid)
				l.pending[string(gid)] = &dlogEntry{gid: gid, shards: r.shards, todo: slices.Clone(r.shards), commit: true, logged: true}
			case 'D':
				delete(l.pending, string(r.gid))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if l.id == 0 {
		l.id = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 | 1
	}
	incarnation++
	l.firstSeq = incarnation << seqShift
	l.seq.Store(l.firstSeq)
	if st == nil {
		return l, nil
	}
	// Records are tens of bytes and every forced C empties the ring, so a
	// small one does.
	m, err := wal.Open(wal.Config{Storage: st, BufferSize: 64 << 10, SyncFlush: true}, res)
	if err != nil {
		return nil, err
	}
	l.log = m
	rec := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64([]byte{'I'}, l.id), incarnation)
	if err := l.append(rec, true); err != nil {
		m.Close()
		return nil, err
	}
	return l, nil
}

// dlogRecord is one decoded decision-log block; gid aliases its payload.
type dlogRecord struct {
	kind   byte
	id, n  uint64 // I
	gid    []byte // C, D
	shards []int  // C
}

// decodeRecord parses a block the log's checksum has already vouched for,
// so a malformed payload is a bug or a foreign log, never a torn write: it
// is refused rather than skipped.
func decodeRecord(b wal.Block) (dlogRecord, error) {
	p := b.Payload
	var r dlogRecord
	if b.Type == wal.BlockCommit && len(p) > 0 {
		r.kind, p = p[0], p[1:]
	}
	switch {
	case r.kind == 'I' && len(p) == 16:
		r.id, r.n = binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:])
		return r, nil
	case r.kind == 'D' && len(p) == gidLen:
		r.gid = p
		return r, nil
	case r.kind == 'C' && len(p) >= gidLen+4:
		r.gid, p = p[:gidLen], p[gidLen:]
		if n := binary.BigEndian.Uint32(p); uint64(len(p)-4) == 4*uint64(n) {
			r.shards = make([]int, n)
			for i := range r.shards {
				r.shards[i] = int(binary.BigEndian.Uint32(p[4+4*i:]))
			}
			return r, nil
		}
	}
	return r, fmt.Errorf("shard: malformed decision-log block at %v", b.LSN)
}

// append logs one record; sync forces it to stable storage before
// returning, which is required for records whose existence other nodes
// will be told about (C before commits go out, I before any gid does).
func (l *decisionLog) append(rec []byte, sync bool) error {
	if l.log == nil {
		return nil
	}
	res, err := l.log.Reserve(len(rec), wal.BlockCommit)
	if err != nil {
		return err
	}
	res.Append(rec)
	res.Commit()
	if !sync {
		return nil
	}
	return l.log.WaitDurable(res.Offset() + wal.BlockHeaderSize + uint64(len(rec)))
}

func (l *decisionLog) gidOf(seq uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(make([]byte, 0, gidLen), l.id), seq)
}

// recoveryRange is the gid range [lo, hi) of every earlier incarnation of
// this coordinator.
func (l *decisionLog) recoveryRange() (lo, hi []byte) {
	return l.gidOf(0), l.gidOf(l.firstSeq)
}

// begin mints a gid and records intent in memory only: until its C record
// exists the transaction is presumed aborted, and a coordinator that dies
// first finds its prepared participants by listing them. The entry is
// returned owned; release it when the commit attempt is over.
func (l *decisionLog) begin(shards []int) *dlogEntry {
	e := &dlogEntry{gid: l.gidOf(l.seq.Add(1)), shards: shards, todo: append([]int(nil), shards...), owned: true}
	l.mu.Lock()
	l.pending[string(e.gid)] = e
	l.mu.Unlock()
	return e
}

// decide makes e's commit decision durable. That forced write is the commit
// point of the whole cross-shard transaction: it MUST complete before any
// participant is told to commit. Concurrent decides share one flush. An
// abort is never logged.
func (l *decisionLog) decide(e *dlogEntry) error {
	rec := make([]byte, 0, 1+gidLen+4+4*len(e.shards))
	rec = binary.BigEndian.AppendUint32(append(append(rec, 'C'), e.gid...), uint32(len(e.shards)))
	for _, s := range e.shards {
		rec = binary.BigEndian.AppendUint32(rec, uint32(s))
	}
	if err := l.append(rec, true); err != nil {
		return err
	}
	l.mu.Lock()
	e.commit, e.logged = true, true
	l.mu.Unlock()
	return nil
}

// markApplied records that every participant has acknowledged e's commit on
// apply: it is no longer in doubt.
func (l *decisionLog) markApplied(e *dlogEntry) {
	l.mu.Lock()
	e.applied = true
	l.mu.Unlock()
}

// release ends e's commit attempt. Whatever state it is left in — gone,
// applied, decided but undelivered, or never decided — is final, and the
// resolvers may act on it.
func (l *decisionLog) release(e *dlogEntry) {
	l.mu.Lock()
	e.owned = false
	l.mu.Unlock()
}

// confirm records that shard has durably confirmed e's decision, retiring
// the entry on the last one. Idempotent. The D record is not forced: it
// rides the next forced write (or close), and losing it merely re-sends
// idempotent decides at recovery.
func (l *decisionLog) confirm(e *dlogEntry, shard int) {
	l.mu.Lock()
	for i, s := range e.todo {
		if s == shard {
			e.todo = append(e.todo[:i], e.todo[i+1:]...)
			break
		}
	}
	retire := len(e.todo) == 0 && l.pending[string(e.gid)] == e
	if retire {
		delete(l.pending, string(e.gid))
	}
	logD := retire && e.logged
	l.mu.Unlock()
	if logD {
		_ = l.append(append([]byte{'D'}, e.gid...), false)
	}
}

// adopt takes responsibility for a gid found prepared on shard: under the
// replayed entry if the log holds its C (it will commit), else under a new
// undecided one (it will abort).
func (l *decisionLog) adopt(gid []byte, shard int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.pending[string(gid)]
	if e == nil {
		e = &dlogEntry{gid: gid}
		l.pending[string(gid)] = e
	}
	for _, s := range e.shards {
		if s == shard {
			return
		}
	}
	e.shards = append(e.shards, shard)
	e.todo = append(e.todo, shard)
}

// inDoubt snapshots the gids whose decision may not have reached every
// participant: pending, not being committed right now, and not merely
// awaiting confirmation.
func (l *decisionLog) inDoubt() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for key, e := range l.pending {
		if !e.owned && !e.applied {
			out = append(out, key)
		}
	}
	return out
}

// undelivered returns the in-doubt entry for key with its decision and the
// participants still to confirm it, or nil if there is none (gone,
// owned by a running commit, or applied everywhere).
func (l *decisionLog) undelivered(key string) (e *dlogEntry, commit bool, todo []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e = l.pending[key]
	if e == nil || e.owned || e.applied {
		return nil, false, nil
	}
	return e, e.commit, append([]int(nil), e.todo...)
}

// close drains the records not yet forced (the D records) and closes the
// log.
func (l *decisionLog) close() error {
	if l.log == nil {
		return nil
	}
	return l.log.Close()
}
