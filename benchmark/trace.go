package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
)

// The traced run times every call through the engine.DB / engine.Txn
// interface from outside, at two places: above whatever the workers call (the
// embedded DB, the pooled client, or the router) and, on the wire workloads,
// between the server and the core engine. The two sides are joined by
// aggregate only, because nothing on the wire identifies a transaction yet.

// Span operations. opTxn is the root span of a transaction (Begin call to the
// end of Commit or Abort); the others are its children, one per call.
const (
	opTxn = iota
	opBegin
	opGet
	opInsert
	opUpdate
	opDelete
	opScan
	opCommit
	opAbort
	numOps
)

var opNames = [numOps]string{"txn", "begin", "get", "insert", "update", "delete", "scan", "commit", "abort"}

// maxClasses bounds the transaction classes a workload may name.
const maxClasses = 8

// maxTraceWorkers bounds worker ids (core.MaxWorkers slots on the engine
// side, clients × depth on the client side).
const maxTraceWorkers = 256

// span is one timed call. Start and End are nanoseconds since the tracer was
// made. Parent indexes the enclosing span in the same worker's buffer (the
// root, or a scan whose callback made the call; -1 for a root), and Txn is
// worker<<40 | per-worker sequence number.
type span struct {
	Txn    uint64
	Start  int64
	End    int64
	Parent int32
	Op     uint8
	Class  uint8
}

type opAgg struct{ n, ns uint64 }

func (a opAgg) meanUs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / 1e3
}

// workerTrace is one worker's spans and totals. Exactly one goroutine uses a
// worker id at a time (a benchmark worker, or the session holding that server
// slot), so nothing here is synchronized; it is read after the servers have
// stopped.
type workerTrace struct {
	spans   []span // the first cap(spans) spans of the measured window
	agg     [numOps]opAgg
	childNs uint64 // sum of the root spans' direct children, to compare with agg[opTxn].ns
	// scanInnerNs is the time scan callbacks spent in calls of their own; a
	// scan's self time is its span minus this.
	scanInnerNs uint64
	// commitByClass splits commit spans by the class the generator announced.
	commitByClass [maxClasses]opAgg
	seq           uint64
	class         uint8
}

type tracer struct {
	side    string // "client" or "engine"
	epoch   time.Time
	spanCap int         // spans retained per worker; totals cover every span
	on      atomic.Bool // set for the measured window only
	workers [maxTraceWorkers]*workerTrace
}

func newTracer(side string, spanCap int) *tracer {
	t := &tracer{side: side, epoch: time.Now(), spanCap: spanCap}
	for i := range t.workers {
		t.workers[i] = &workerTrace{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setClass announces the class of the transactions worker is about to run.
func (t *tracer) setClass(worker, class int) {
	t.workers[worker%maxTraceWorkers].class = uint8(class)
}

// begin wraps a transaction that inner.Begin returned at start..now.
func (t *tracer) begin(worker int, inner engine.Txn, start int64) engine.Txn {
	if !t.on.Load() {
		return inner
	}
	w := t.workers[worker%maxTraceWorkers]
	w.seq++
	tx := &tracedTxn{Txn: inner, t: t, w: w, id: uint64(worker)<<40 | w.seq, start: start, root: -1, parent: -1}
	if w.spans == nil {
		w.spans = make([]span, 0, t.spanCap)
	}
	// A root is retained only with room left for a typical transaction's
	// children; a long transaction may still lose its last ones.
	if len(w.spans)+64 <= cap(w.spans) {
		tx.root = int32(len(w.spans))
		tx.parent = tx.root
		w.spans = append(w.spans, span{Txn: tx.id, Start: start, Parent: -1, Op: opTxn, Class: w.class})
	}
	tx.child(opBegin, start)
	return tx
}

type tracedTxn struct {
	engine.Txn
	t     *tracer
	w     *workerTrace
	id    uint64
	start int64
	root  int32 // index of the root span when retained, else -1
	// A Scan's callback may call back into the transaction (TPC-C's Q2* reads
	// stock rows per supplier scanned). Such calls are children of the scan
	// span, not of the root: parent is the span new calls hang under, depth
	// how many scans enclose them, inner their time inside the current scan.
	parent int32
	depth  int
	inner  uint64
}

// child records a call of kind op that began at start and has just returned.
func (x *tracedTxn) child(op int, start int64) int64 {
	end := x.t.now()
	w := x.w
	w.agg[op].n++
	w.agg[op].ns += uint64(end - start)
	if x.depth > 0 {
		x.inner += uint64(end - start)
	} else {
		w.childNs += uint64(end - start)
	}
	if x.root >= 0 && len(w.spans) < cap(w.spans) {
		w.spans = append(w.spans, span{Txn: x.id, Start: start, End: end, Parent: x.parent, Op: uint8(op), Class: w.class})
	}
	return end
}

func (x *tracedTxn) finish(end int64) {
	w := x.w
	w.agg[opTxn].n++
	w.agg[opTxn].ns += uint64(end - x.start)
	if x.root >= 0 {
		w.spans[x.root].End = end
	}
}

func (x *tracedTxn) Get(t engine.Table, key []byte) ([]byte, error) {
	s := x.t.now()
	v, err := x.Txn.Get(t, key)
	x.child(opGet, s)
	return v, err
}

func (x *tracedTxn) Insert(t engine.Table, key, value []byte) error {
	s := x.t.now()
	err := x.Txn.Insert(t, key, value)
	x.child(opInsert, s)
	return err
}

func (x *tracedTxn) Update(t engine.Table, key, value []byte) error {
	s := x.t.now()
	err := x.Txn.Update(t, key, value)
	x.child(opUpdate, s)
	return err
}

func (x *tracedTxn) Delete(t engine.Table, key []byte) error {
	s := x.t.now()
	err := x.Txn.Delete(t, key)
	x.child(opDelete, s)
	return err
}

func (x *tracedTxn) Scan(t engine.Table, lo, hi []byte, fn func(key, value []byte) bool) error {
	s := x.t.now()
	w := x.w
	// The scan's span is placed before the calls its callback makes, so that
	// they can name it as their parent; its end is filled in afterwards.
	at := int32(-1)
	if x.root >= 0 && len(w.spans) < cap(w.spans) {
		at = int32(len(w.spans))
		w.spans = append(w.spans, span{Txn: x.id, Start: s, Parent: x.parent, Op: opScan, Class: w.class})
	}
	outerParent, outerInner := x.parent, x.inner
	if at >= 0 {
		x.parent = at
	}
	x.inner = 0
	x.depth++
	err := x.Txn.Scan(t, lo, hi, fn)
	x.depth--
	inner := x.inner
	x.parent, x.inner = outerParent, outerInner

	end := x.t.now()
	w.agg[opScan].n++
	w.agg[opScan].ns += uint64(end - s)
	w.scanInnerNs += inner
	if x.depth > 0 {
		x.inner += uint64(end - s)
	} else {
		w.childNs += uint64(end - s)
	}
	if at >= 0 {
		w.spans[at].End = end
	}
	return err
}

func (x *tracedTxn) Commit() error {
	s := x.t.now()
	err := x.Txn.Commit()
	end := x.child(opCommit, s)
	if err == nil {
		c := &x.w.commitByClass[x.w.class%maxClasses]
		c.n++
		c.ns += uint64(end - s)
	}
	x.finish(end)
	return err
}

func (x *tracedTxn) Abort() {
	s := x.t.now()
	x.Txn.Abort()
	x.finish(x.child(opAbort, s))
}

// tracedDB is decorator (1): it sits above whatever the workers call.
type tracedDB struct {
	engine.DB
	t *tracer
}

func (d *tracedDB) Begin(worker int) engine.Txn {
	s := d.t.now()
	return d.t.begin(worker, d.DB.Begin(worker), s)
}

func (d *tracedDB) BeginReadOnly(worker int) engine.Txn {
	s := d.t.now()
	return d.t.begin(worker, d.DB.BeginReadOnly(worker), s)
}

// coreTap is decorator (2): the engine a server is given. Embedding *core.DB
// keeps WaitDurable, SyncCommit, DurableOffset and Log promoted, so the
// server resolves its durability mode exactly as it does on a bare *core.DB.
type coreTap struct {
	*core.DB
	t *tracer
	// base keeps the worker slots of several servers apart in one tracer.
	base int
}

// slotsPerServer spaces the servers' worker slots in the engine-side tracer.
const slotsPerServer = 64

func (d *coreTap) Begin(worker int) engine.Txn {
	s := d.t.now()
	return d.t.begin(d.base+worker, d.DB.Begin(worker), s)
}

func (d *coreTap) BeginReadOnly(worker int) engine.Txn {
	s := d.t.now()
	return d.t.begin(d.base+worker, d.DB.BeginReadOnly(worker), s)
}

// traceTotals is a tracer's spans added up over its workers.
type traceTotals struct {
	agg           [numOps]opAgg
	childNs       uint64
	scanInnerNs   uint64
	commitByClass [maxClasses]opAgg
}

func (t *tracer) totals() traceTotals {
	var tt traceTotals
	for _, w := range t.workers {
		for i, a := range w.agg {
			tt.agg[i].n += a.n
			tt.agg[i].ns += a.ns
		}
		for i, a := range w.commitByClass {
			tt.commitByClass[i].n += a.n
			tt.commitByClass[i].ns += a.ns
		}
		tt.childNs += w.childNs
		tt.scanInnerNs += w.scanInnerNs
	}
	// A scan's self time is its span minus the calls its callback made.
	tt.agg[opScan].ns -= tt.scanInnerNs
	return tt
}

// traceSpan is the JSON form of a span in trace-<workload>.json.
type traceSpan struct {
	Side    string `json:"side"`
	Worker  int    `json:"worker"`
	ID      int    `json:"id"`     // index within (side, worker)
	Parent  int    `json:"parent"` // id of the root span, -1 for a root
	Txn     uint64 `json:"txn"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type traceFile struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Note     string      `json:"note"`
	Spans    []traceSpan `json:"spans"`
}

// writeTrace writes the retained spans of every tracer to path.
func writeTrace(path, workload string, seed uint64, classes []string, tracers ...*tracer) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Note: "spans of the first transactions of the measured window, per worker; times are ns since the side's tracer was made; " +
			"client and engine spans share no id (joined by aggregate only)",
	}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for wi, w := range t.workers {
			for i, s := range w.spans {
				class := ""
				if int(s.Class) < len(classes) {
					class = classes[s.Class]
				}
				tf.Spans = append(tf.Spans, traceSpan{
					Side: t.side, Worker: wi, ID: i, Parent: int(s.Parent), Txn: s.Txn,
					Name: opNames[s.Op], Class: class, StartNs: s.Start, EndNs: s.End,
				})
			}
		}
	}
	blob, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
