package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
// Records, one per line:
//
//	I <id> <n>          incarnation n of coordinator <id> opened the log (forced)
//	C <gid> <s0,s1,..>  commit decision and its participants (forced)
//	D <gid>             retired
//
// A gid is id ‖ sequence, both big-endian, so one coordinator's gids sort by
// age. Incarnation n numbers from n<<seqShift, above anything an earlier one
// can have used; that is what lets recovery tell its predecessors' orphans
// from its own live transactions without a record per transaction.
//
// With no path configured the log is memory-only: resolution still works
// for the life of the process (the background resolver), but a coordinator
// crash orphans prepared transactions until an operator intervenes —
// production routers should always set Options.DecisionLog.
type decisionLog struct {
	id       uint64
	firstSeq uint64
	seq      atomic.Uint64

	fmu   sync.Mutex // serializes appends; never held with mu
	f     *os.File   // nil = memory-only
	fsync func() error

	mu      sync.Mutex
	pending map[string]*dlogEntry
	// retired buffers D lines until the next forced append carries them out
	// (or close does): retiring costs no write of its own.
	retired []byte
}

// seqShift sizes an incarnation's sequence space: 2^40 transactions each,
// 2^24 incarnations.
const seqShift = 40

// openDecisionLog opens (creating if needed) the log at path, replays it
// into the in-memory pending set and records the new incarnation. Empty
// path means memory-only.
func openDecisionLog(path string) (*decisionLog, error) {
	l := &decisionLog{pending: make(map[string]*dlogEntry)}
	var incarnation uint64
	if path != "" {
		var err error
		if incarnation, err = l.replay(path); err != nil {
			return nil, err
		}
	}
	if l.id == 0 {
		l.id = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 | 1
	}
	incarnation++
	l.firstSeq = incarnation << seqShift
	l.seq.Store(l.firstSeq)
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.f, l.fsync = f, f.Sync
	line := fmt.Sprintf("I %016x %d\n", l.id, incarnation)
	// A crash mid-append leaves a torn last line; end it, or the first
	// record written now would be read as part of it.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			line = "\n" + line
		}
	}
	if err := l.append([]byte(line), true); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay loads an existing log file and returns the highest incarnation it
// records. Torn trailing lines (a crash mid-append) are ignored; every
// complete record before them is honored.
func (l *decisionLog) replay(path string) (incarnation uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		raw, err := hex.DecodeString(fields[1])
		if err != nil {
			continue
		}
		key := string(raw)
		switch fields[0] {
		case "I":
			if len(raw) != 8 || len(fields) < 3 {
				continue
			}
			n, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				continue
			}
			if l.id == 0 {
				l.id = binary.BigEndian.Uint64(raw)
			}
			if n > incarnation {
				incarnation = n
			}
		case "C":
			if len(fields) < 3 {
				continue
			}
			if shards, ok := parseShards(fields[2]); ok {
				l.pending[key] = &dlogEntry{gid: raw, shards: shards, todo: append([]int(nil), shards...), commit: true, logged: true}
			}
		case "D":
			delete(l.pending, key)
		}
	}
	return incarnation, sc.Err()
}

func parseShards(s string) ([]int, bool) {
	var shards []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, false
		}
		shards = append(shards, n)
	}
	return shards, true
}

// append writes records; sync forces them to stable storage before
// returning, which is required for records whose existence other nodes
// will be told about (C before commits go out, I before any gid does).
func (l *decisionLog) append(buf []byte, sync bool) error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.f == nil || len(buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	if sync {
		return l.fsync()
	}
	return nil
}

func (l *decisionLog) gidOf(seq uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(make([]byte, 0, 16), l.id), seq)
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

// decide makes e's commit decision durable. That fsync is the commit point
// of the whole cross-shard transaction: it MUST complete before any
// participant is told to commit. An abort is never logged.
func (l *decisionLog) decide(e *dlogEntry) error {
	line := make([]byte, 0, 64)
	line = append(line, "C "...)
	line = hex.AppendEncode(line, e.gid)
	for i, s := range e.shards {
		sep := byte(',')
		if i == 0 {
			sep = ' '
		}
		line = strconv.AppendInt(append(line, sep), int64(s), 10)
	}
	line = append(line, '\n')
	l.mu.Lock()
	buf := append(l.retired, line...)
	l.retired = nil
	l.mu.Unlock()
	if err := l.append(buf, true); err != nil {
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

// release ends e's commit attempt. Whatever state it is left in — retired,
// applied, decided but undelivered, or never decided — is final, and the
// resolvers may act on it.
func (l *decisionLog) release(e *dlogEntry) {
	l.mu.Lock()
	e.owned = false
	l.mu.Unlock()
}

// confirm records that shard has durably confirmed e's decision, retiring
// the entry on the last one. Idempotent. The D record is not forced: losing
// it merely re-sends idempotent decides at recovery.
func (l *decisionLog) confirm(e *dlogEntry, shard int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range e.todo {
		if s == shard {
			e.todo = append(e.todo[:i], e.todo[i+1:]...)
			break
		}
	}
	if len(e.todo) > 0 || l.pending[string(e.gid)] != e {
		return
	}
	delete(l.pending, string(e.gid))
	if e.logged {
		l.retired = hex.AppendEncode(append(l.retired, "D "...), e.gid)
		l.retired = append(l.retired, '\n')
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
// participants still to confirm it, or nil if there is none (retired,
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

func (l *decisionLog) close() error {
	l.mu.Lock()
	buf := l.retired
	l.retired = nil
	l.mu.Unlock()
	err := l.append(buf, false)
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.f == nil {
		return err
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
