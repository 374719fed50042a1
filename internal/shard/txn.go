package shard

import (
	"bytes"
	"fmt"

	"ermia/internal/client"
	"ermia/internal/engine"
	"ermia/internal/proto"
)

// childTxn is the slice of a router transaction living on one shard: the
// shard's own transaction plus the write set mirrored for the prepare
// record (two-phase commit ships it so the participant can re-establish
// its locks after a crash).
type childTxn struct {
	shard  int
	txn    engine.Txn
	writes []client.PrepareOp
}

// routerTxn implements engine.Txn over per-shard child transactions,
// opened lazily on first touch. The child count at commit time picks the
// path: zero or one writer commits exactly like an unsharded client
// (single-shard fast path — no gid, no decision log, no extra frames);
// two or more writers go through the two-phase-commit coordinator.
type routerTxn struct {
	r        *Router
	worker   int
	readOnly bool
	done     bool

	children map[int]*childTxn
	order    []int
}

// child returns (opening if needed) the transaction slice on shard.
//
// A commit this router reported may so far be only applied on the shard, not
// durable (confirmQueue). Should the shard have restarted since, it is back
// to prepared there, and a snapshot taken now would miss it. The new slice's
// connection exists by the time Begin returns (it sends nothing yet), so if
// the pool has dialed since the oldest such commit was sent, the queue is
// re-delivered first: whoever was told "committed" never reads the state
// from before.
//
//ermia:txn-owner routerTxn.children owns every child handle; Commit/commitCross and Abort walk the map and finish each exactly once
func (t *routerTxn) child(shard int) (*childTxn, error) {
	if c, ok := t.children[shard]; ok {
		return c, nil
	}
	var tx engine.Txn
	if t.readOnly {
		tx = t.r.clients[shard].BeginReadOnly(t.worker)
	} else {
		tx = t.r.clients[shard].Begin(t.worker)
	}
	if t.r.clients[shard].Dials() > t.r.queues[shard].stale.Load() {
		if err := t.r.redeliver(shard, t.worker); err != nil {
			tx.Abort()
			return nil, fmt.Errorf("shard %d: re-delivering commits after a reconnect: %w", shard, err)
		}
	}
	c := &childTxn{shard: shard, txn: tx}
	if t.children == nil {
		t.children = make(map[int]*childTxn, 2)
	}
	t.children[shard] = c
	t.order = append(t.order, shard)
	return c, nil
}

// readShard picks the shard that serves a read. Hash-partitioned keys have
// exactly one home; replicated tables are readable anywhere, so reads
// anchor on the transaction's first-touched shard (keeping single-shard
// transactions single-shard) and otherwise spread by worker.
func (t *routerTxn) readShard(rule TableRule, key []byte) int {
	if !rule.Replicated {
		return t.r.m.ShardOf(rule, key)
	}
	if len(t.order) > 0 {
		return t.order[0]
	}
	return t.worker % len(t.r.clients)
}

// Get implements engine.Txn.
func (t *routerTxn) Get(tbl engine.Table, key []byte) ([]byte, error) {
	if t.done {
		return nil, engine.ErrAborted
	}
	name := tbl.Name()
	sh := t.readShard(t.r.m.RuleFor(name), key)
	c, err := t.child(sh)
	if err != nil {
		return nil, err
	}
	return c.txn.Get(t.r.tableOn(sh, name), key)
}

// Insert implements engine.Txn.
func (t *routerTxn) Insert(tbl engine.Table, key, value []byte) error {
	return t.write(proto.MsgInsert, tbl, key, value)
}

// Update implements engine.Txn.
func (t *routerTxn) Update(tbl engine.Table, key, value []byte) error {
	return t.write(proto.MsgUpdate, tbl, key, value)
}

// Delete implements engine.Txn.
func (t *routerTxn) Delete(tbl engine.Table, key []byte) error {
	return t.write(proto.MsgDelete, tbl, key, nil)
}

// write routes one mutation. Hash-partitioned keys go to their home shard;
// replicated tables fan out to every shard so all copies stay identical
// (the whole fan-out is still one atomic transaction — any failing copy
// fails the call and the eventual abort rolls all of them back).
func (t *routerTxn) write(op byte, tbl engine.Table, key, value []byte) error {
	if t.done {
		return engine.ErrAborted
	}
	name := tbl.Name()
	rule := t.r.m.RuleFor(name)
	if rule.Replicated && !t.readOnly {
		for i := range t.r.clients {
			if err := t.applyOp(i, op, name, key, value); err != nil {
				return err
			}
		}
		return nil
	}
	return t.applyOp(t.readShard(rule, key), op, name, key, value)
}

// applyOp performs the mutation on shard's child and, on success, mirrors it
// into the child's write set. Key and value are copied: the write set must
// survive until prepare time, after the caller may have reused its buffers.
func (t *routerTxn) applyOp(shard int, op byte, name string, key, value []byte) error {
	c, err := t.child(shard)
	if err != nil {
		return err
	}
	tb := t.r.tableOn(shard, name)
	switch op {
	case proto.MsgInsert:
		err = c.txn.Insert(tb, key, value)
	case proto.MsgUpdate:
		err = c.txn.Update(tb, key, value)
	case proto.MsgDelete:
		err = c.txn.Delete(tb, key)
	}
	if err != nil {
		return err
	}
	po := client.PrepareOp{Op: op, Table: name, Key: append([]byte(nil), key...)}
	if op != proto.MsgDelete {
		po.Value = append([]byte(nil), value...)
	}
	c.writes = append(c.writes, po)
	return nil
}

// Scan implements engine.Txn. Replicated tables scan one copy. A range
// provably confined to one shard (shared routing prefix, or a one-shard
// map) scans only there. Everything else merge-scans: every shard is
// paged through in key order and the streams are merged, preserving the
// global ordering contract; hash partitioning makes the streams disjoint,
// so no tie-breaking is needed.
func (t *routerTxn) Scan(tbl engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	if t.done {
		return engine.ErrAborted
	}
	name := tbl.Name()
	rule := t.r.m.RuleFor(name)
	var sh int
	if rule.Replicated {
		sh = t.readShard(rule, lo)
	} else if s, ok := t.r.m.SingleShardRange(rule, lo, hi); ok {
		sh = s
	} else {
		return t.mergeScan(name, lo, hi, fn)
	}
	c, err := t.child(sh)
	if err != nil {
		return err
	}
	return c.txn.Scan(t.r.tableOn(sh, name), lo, hi, fn)
}

// scanPage bounds how many rows a merge-scan cursor pulls per round trip.
const scanPage = 256

type scanKV struct{ k, v []byte }

// scanCursor pages one shard's slice of a merge scan. Each page is a
// bounded child Scan resumed just past the previous page's last key; all
// pages run inside the same child transaction, so they observe one
// consistent snapshot.
type scanCursor struct {
	c    *childTxn
	tbl  engine.Table
	next []byte
	hi   []byte
	buf  []scanKV
	pos  int
	eof  bool
}

// ensure makes the cursor's head row available, fetching the next page if
// the buffer is drained. Returns false at end of stream.
func (sc *scanCursor) ensure() (bool, error) {
	for sc.pos >= len(sc.buf) {
		if sc.eof {
			return false, nil
		}
		sc.buf = sc.buf[:0]
		sc.pos = 0
		n := 0
		err := sc.c.txn.Scan(sc.tbl, sc.next, sc.hi, func(k, v []byte) bool {
			sc.buf = append(sc.buf, scanKV{
				k: append([]byte(nil), k...),
				v: append([]byte(nil), v...),
			})
			n++
			return n < scanPage
		})
		if err != nil {
			return false, err
		}
		if n < scanPage {
			sc.eof = true
		} else {
			last := sc.buf[len(sc.buf)-1].k
			sc.next = append(append(sc.next[:0], last...), 0)
		}
	}
	return true, nil
}

func (t *routerTxn) mergeScan(name string, lo, hi []byte, fn func(key, value []byte) bool) error {
	curs := make([]*scanCursor, len(t.r.clients))
	for i := range curs {
		c, err := t.child(i)
		if err != nil {
			return err
		}
		curs[i] = &scanCursor{
			c:    c,
			tbl:  t.r.tableOn(i, name),
			next: append([]byte(nil), lo...),
			hi:   hi,
		}
	}
	for {
		var min *scanCursor
		for _, sc := range curs {
			ok, err := sc.ensure()
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if min == nil || bytes.Compare(sc.buf[sc.pos].k, min.buf[min.pos].k) < 0 {
				min = sc
			}
		}
		if min == nil {
			return nil
		}
		kv := min.buf[min.pos]
		min.pos++
		if !fn(kv.k, kv.v) {
			return nil
		}
	}
}

// Commit implements engine.Txn. Children that only read are committed
// first — their snapshot validation can still fail the transaction before
// anything becomes durable anywhere. Then: zero writers is a read-only
// commit, one writer commits exactly like an unsharded transaction (the
// fast path), several writers hand off to the two-phase-commit
// coordinator.
func (t *routerTxn) Commit() error {
	if t.done {
		return engine.ErrAborted
	}
	t.done = true
	var writers, readers []*childTxn
	for _, sh := range t.order {
		c := t.children[sh]
		if len(c.writes) > 0 {
			writers = append(writers, c)
		} else {
			readers = append(readers, c)
		}
	}
	for i, c := range readers {
		if err := c.txn.Commit(); err != nil {
			for _, rest := range readers[i+1:] {
				rest.txn.Abort()
			}
			for _, w := range writers {
				w.txn.Abort()
			}
			return err
		}
	}
	switch len(writers) {
	case 0:
		return nil
	case 1:
		if err := writers[0].txn.Commit(); err != nil {
			return err
		}
		t.r.fastCommits.Add(1)
		return nil
	}
	return t.r.commitCross(t.worker, writers)
}

// Abort implements engine.Txn.
func (t *routerTxn) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, sh := range t.order {
		t.children[sh].txn.Abort()
	}
}

var _ engine.Txn = (*routerTxn)(nil)
