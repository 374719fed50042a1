package query

import (
	"fmt"
	"sort"

	"ermia/internal/engine"
)

// Rows is the volcano iterator every operator implements. Next returns
// the next row, or (nil, nil) when the stream is exhausted, or an error.
// Errors are sticky; after an error or exhaustion further Next calls keep
// returning the same result. Close releases operator state (not the
// transaction — the caller owns that) and is idempotent.
type Rows interface {
	Next() (Row, error)
	Close()
}

// Options tunes one execution.
type Options struct {
	// MaxRows caps both the rows the root may emit and the rows any
	// blocking operator (join build side, aggregate table, sort buffer)
	// may materialize. Exceeding it fails the query with
	// engine.ErrQueryOverflow. Zero means DefaultMaxRows.
	MaxRows int
	// Cancel, when non-nil, is polled between batches of rows. Returning
	// true fails the query with engine.ErrQueryCancelled.
	Cancel func() bool
}

// DefaultMaxRows bounds result and materialization size when Options
// leaves MaxRows zero: enough for every workload in this repo, small
// enough that a runaway cross-product fails loudly instead of paging.
const DefaultMaxRows = 1 << 20

// scanPageRows is how many rows a scan operator pulls per engine.Txn.Scan
// call. Paging keeps the callback-style engine API pull-based without
// materializing the table; the cursor resumes at the first unreturned key.
const scanPageRows = 256

// cancelCheckEvery is how many rows a blocking operator consumes between
// cancellation polls.
const cancelCheckEvery = 128

// exec is per-execution shared state: the snapshot transaction, the table
// resolver, the row budget, and the cancellation hook.
type exec struct {
	txn     engine.Txn
	resolve func(string) engine.Table
	budget  int
	cancel  func() bool
	polls   int
}

func (x *exec) cancelled() error {
	if x.cancel != nil && x.cancel() {
		return engine.ErrQueryCancelled
	}
	return nil
}

// charge spends n rows of the shared materialization/result budget.
func (x *exec) charge(n int) error {
	x.budget -= n
	if x.budget < 0 {
		return engine.ErrQueryOverflow
	}
	return nil
}

// Run validates the plan and builds its iterator tree over txn. The
// transaction is typically a BeginReadOnly snapshot — analytical plans
// then observe one consistent version of every table and never conflict
// with writers — but any open transaction works (the analytics example
// queries inside a read-write transaction and then writes). resolve maps
// table names to handles; returning nil reports an unknown table. The
// caller owns txn: Run never commits, aborts, or closes it.
//
// Execution is lazy: Run itself reads nothing. Blocking operators (join
// build, aggregate, sort) materialize on the first Next.
func Run(txn engine.Txn, resolve func(string) engine.Table, p *Plan, opts Options) (Rows, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	max := opts.MaxRows
	if max <= 0 {
		max = DefaultMaxRows
	}
	x := &exec{txn: txn, resolve: resolve, budget: max, cancel: opts.Cancel}
	it, err := buildIter(x, p.Root)
	if err != nil {
		return nil, err
	}
	return &rootIter{x: x, in: it}, nil
}

// Collect runs the plan and drains it into a slice.
func Collect(txn engine.Txn, resolve func(string) engine.Table, p *Plan, opts Options) ([]Row, error) {
	it, err := Run(txn, resolve, p, opts)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Row
	for {
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// RunReadOnly executes the plan in its own read-only snapshot transaction
// on db and collects the full result. db may be embedded or a remote
// client: against a client the operators run locally over ordinary scan
// pages, all inside the client transaction's snapshot. The snapshot is
// taken when the query starts, held for the whole query, and released
// before returning, so writers proceed untouched throughout.
func RunReadOnly(db engine.DB, worker int, p *Plan, opts Options) ([]Row, error) {
	txn := db.BeginReadOnly(worker)
	defer txn.Abort()
	rows, err := Collect(txn, db.OpenTable, p, opts)
	if err != nil {
		return nil, err
	}
	// Read-only snapshot commit cannot conflict; Abort after Commit is a
	// no-op on both engines but keeping the defer makes early returns safe.
	if err := txn.Commit(); err != nil {
		return nil, err
	}
	return rows, nil
}

func buildIter(x *exec, n *Node) (Rows, error) {
	switch n.Kind {
	case NodeScan:
		tbl := x.resolve(n.Table)
		if tbl == nil {
			return nil, fmt.Errorf("%w: unknown table %q", engine.ErrBadQueryPlan, n.Table)
		}
		return &scanIter{x: x, tbl: tbl, schema: &n.Schema, cursor: n.Lo, hi: n.Hi}, nil
	case NodeFilter:
		in, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		return &filterIter{in: in, pred: n.Pred}, nil
	case NodeProject:
		in, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		return &projectIter{in: in, exprs: n.Exprs}, nil
	case NodeHashJoin:
		left, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		right, err := buildIter(x, n.Right)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{x: x, left: left, right: right, lkeys: n.LeftKeys, rkeys: n.RightKeys}, nil
	case NodeAggregate:
		in, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		return &aggIter{x: x, in: in, groupBy: n.GroupBy, aggs: n.Aggs}, nil
	case NodeSort:
		in, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		return &sortIter{x: x, in: in, keys: n.Keys}, nil
	case NodeLimit:
		in, err := buildIter(x, n.Left)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, skip: int(n.Offset), left: int(n.Count)}, nil
	}
	return nil, planErr("bad operator kind %d", n.Kind)
}

// rootIter enforces the emitted-row budget and makes errors sticky.
type rootIter struct {
	x    *exec
	in   Rows
	done bool
	err  error
}

func (it *rootIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.done {
		return nil, nil
	}
	row, err := it.in.Next()
	if err != nil {
		it.err = err
		return nil, err
	}
	if row == nil {
		it.done = true
		return nil, nil
	}
	if err := it.x.charge(1); err != nil {
		it.err = err
		return nil, err
	}
	return row, nil
}

func (it *rootIter) Close() { it.in.Close() }

// scanIter pages through a table (or key range) via engine.Txn.Scan,
// decoding each pair with the schema. The engine's callback API stops a
// scan by returning false; the iterator remembers the first key it did
// not take and resumes the next page from it (keys are unique, lo is
// inclusive, so no row is skipped or repeated).
type scanIter struct {
	x      *exec
	tbl    engine.Table
	schema *Schema
	cursor []byte // next page's lo; nil means start of table
	hi     []byte
	buf    []Row
	pos    int
	more   bool // a page boundary was hit; cursor holds the resume key
	done   bool
	err    error
}

func (it *scanIter) Next() (Row, error) {
	for {
		if it.err != nil {
			return nil, it.err
		}
		if it.pos < len(it.buf) {
			row := it.buf[it.pos]
			it.pos++
			return row, nil
		}
		if it.done {
			return nil, nil
		}
		if err := it.x.cancelled(); err != nil {
			it.err = err
			return nil, err
		}
		it.buf = it.buf[:0]
		it.pos = 0
		it.more = false
		var decErr error
		err := it.x.txn.Scan(it.tbl, it.cursor, it.hi, func(k, v []byte) bool {
			if len(it.buf) >= scanPageRows {
				// Fresh allocation: the initial cursor aliases the plan's
				// Lo bytes, which must not be scribbled over.
				it.cursor = append([]byte(nil), k...)
				it.more = true
				return false
			}
			row, err := it.schema.DecodeKV(k, v)
			if err != nil {
				decErr = err
				return false
			}
			it.buf = append(it.buf, row)
			return true
		})
		if err == nil {
			err = decErr
		}
		if err != nil {
			it.err = err
			return nil, err
		}
		if !it.more {
			it.done = true
		}
	}
}

func (it *scanIter) Close() { it.done = true; it.buf = nil }

type filterIter struct {
	in   Rows
	pred *Expr
	err  error
}

func (it *filterIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	for {
		row, err := it.in.Next()
		if err != nil || row == nil {
			it.err = err
			return nil, err
		}
		keep, err := it.pred.Eval(row)
		if err != nil {
			it.err = err
			return nil, err
		}
		ok, err := asBool(keep)
		if err != nil {
			it.err = err
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

func (it *filterIter) Close() { it.in.Close() }

type projectIter struct {
	in    Rows
	exprs []*Expr
	err   error
}

func (it *projectIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	row, err := it.in.Next()
	if err != nil || row == nil {
		it.err = err
		return nil, err
	}
	out := make(Row, len(it.exprs))
	for i, e := range it.exprs {
		if out[i], err = e.Eval(row); err != nil {
			it.err = err
			return nil, err
		}
	}
	return out, nil
}

func (it *projectIter) Close() { it.in.Close() }

// hashJoinIter materializes the right input into a hash table on the
// first Next, then streams the left input probing it. Matches for one
// left row are emitted in right-input order, so overall output order is
// deterministic: left order major, right order minor — the same order a
// naive nested-loop join produces.
type hashJoinIter struct {
	x            *exec
	left, right  Rows
	lkeys, rkeys []int
	table        map[string][]Row
	built        bool
	cur          Row   // current left row with pending matches
	matches      []Row // pending right matches for cur
	mpos         int
	keyBuf       []byte
	err          error
	done         bool
}

func (it *hashJoinIter) build() error {
	it.table = make(map[string][]Row)
	n := 0
	for {
		row, err := it.right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			it.built = true
			return nil
		}
		if err := it.x.charge(1); err != nil {
			return err
		}
		key := string(joinKey(it.keyBuf[:0], row, it.rkeys))
		it.table[key] = append(it.table[key], row)
		if n++; n%cancelCheckEvery == 0 {
			if err := it.x.cancelled(); err != nil {
				return err
			}
		}
	}
}

func joinKey(dst []byte, row Row, cols []int) []byte {
	for _, c := range cols {
		dst = row[c].groupKey(dst)
	}
	return dst
}

func (it *hashJoinIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.done {
		return nil, nil
	}
	if !it.built {
		if err := it.build(); err != nil {
			it.err = err
			return nil, err
		}
	}
	for {
		if it.mpos < len(it.matches) {
			r := it.matches[it.mpos]
			it.mpos++
			out := make(Row, 0, len(it.cur)+len(r))
			out = append(out, it.cur...)
			out = append(out, r...)
			return out, nil
		}
		row, err := it.left.Next()
		if err != nil {
			it.err = err
			return nil, err
		}
		if row == nil {
			it.done = true
			return nil, nil
		}
		it.keyBuf = joinKey(it.keyBuf[:0], row, it.lkeys)
		it.cur = row
		it.matches = it.table[string(it.keyBuf)]
		it.mpos = 0
	}
}

func (it *hashJoinIter) Close() {
	it.left.Close()
	it.right.Close()
	it.table = nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	extreme  Value // current MIN or MAX
	seen     bool
}

func (a *aggState) add(fn AggFn, v Value) error {
	switch fn {
	case AggSum, AggAvg:
		switch v.Kind {
		case KindInt:
			if a.isFloat {
				a.sumFloat += float64(v.Int)
			} else {
				a.sumInt += v.Int
			}
		case KindFloat:
			if !a.isFloat {
				a.isFloat = true
				a.sumFloat = float64(a.sumInt)
			}
			a.sumFloat += v.Float
		default:
			return typeErr("SUM/AVG over a string value")
		}
		a.count++
	case AggMin:
		if !a.seen || Compare(v, a.extreme) < 0 {
			a.extreme = v
		}
		a.seen = true
	case AggMax:
		if !a.seen || Compare(v, a.extreme) > 0 {
			a.extreme = v
		}
		a.seen = true
	}
	return nil
}

func (a *aggState) result(fn AggFn) Value {
	switch fn {
	case AggCount:
		return IntVal(a.count)
	case AggSum:
		if a.count == 0 {
			return IntVal(0)
		}
		if a.isFloat {
			return FloatVal(a.sumFloat)
		}
		return IntVal(a.sumInt)
	case AggAvg:
		if a.count == 0 {
			return IntVal(0)
		}
		if a.isFloat {
			return FloatVal(a.sumFloat / float64(a.count))
		}
		return FloatVal(float64(a.sumInt) / float64(a.count))
	default: // Min, Max
		if !a.seen {
			return IntVal(0)
		}
		return a.extreme
	}
}

// group is one GROUP BY bucket: its key values plus one state per agg.
type group struct {
	vals  []Value
	aggs  []aggState
	count int64 // COUNT state, shared by every AggCount spec
}

// aggIter drains its input into group buckets on the first Next, then
// emits one row per group in first-seen order (deterministic given a
// deterministic input order — no map iteration reaches the output).
type aggIter struct {
	x       *exec
	in      Rows
	groupBy []int
	aggs    []AggSpec
	groups  []*group
	index   map[string]*group
	built   bool
	pos     int
	err     error
}

func (it *aggIter) build() error {
	it.index = make(map[string]*group)
	var keyBuf []byte
	n := 0
	for {
		row, err := it.in.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		keyBuf = joinKey(keyBuf[:0], row, it.groupBy)
		g, ok := it.index[string(keyBuf)]
		if !ok {
			if err := it.x.charge(1); err != nil {
				return err
			}
			g = &group{vals: make([]Value, len(it.groupBy)), aggs: make([]aggState, len(it.aggs))}
			for i, c := range it.groupBy {
				g.vals[i] = row[c]
			}
			it.index[string(keyBuf)] = g
			it.groups = append(it.groups, g)
		}
		g.count++
		for i, spec := range it.aggs {
			if spec.Fn == AggCount {
				continue
			}
			v, err := spec.Arg.Eval(row)
			if err != nil {
				return err
			}
			if err := g.aggs[i].add(spec.Fn, v); err != nil {
				return err
			}
		}
		if n++; n%cancelCheckEvery == 0 {
			if err := it.x.cancelled(); err != nil {
				return err
			}
		}
	}
	// A streaming (no GROUP BY) aggregate over zero rows still reports:
	// COUNT is 0 and every other aggregate defaults to Int 0.
	if len(it.groupBy) == 0 && len(it.groups) == 0 {
		it.groups = append(it.groups, &group{aggs: make([]aggState, len(it.aggs))})
	}
	it.built = true
	return nil
}

func (it *aggIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if !it.built {
		if err := it.build(); err != nil {
			it.err = err
			return nil, err
		}
	}
	if it.pos >= len(it.groups) {
		return nil, nil
	}
	g := it.groups[it.pos]
	it.pos++
	out := make(Row, 0, len(g.vals)+len(it.aggs))
	out = append(out, g.vals...)
	for i, spec := range it.aggs {
		if spec.Fn == AggCount {
			out = append(out, IntVal(g.count))
			continue
		}
		out = append(out, g.aggs[i].result(spec.Fn))
	}
	return out, nil
}

func (it *aggIter) Close() { it.in.Close(); it.groups = nil; it.index = nil }

// sortIter materializes and stably sorts on the first Next. Stability
// plus the deterministic input order of every upstream operator makes the
// full output order deterministic even with duplicate sort keys.
type sortIter struct {
	x     *exec
	in    Rows
	keys  []SortKey
	rows  []Row
	built bool
	pos   int
	err   error
}

func (it *sortIter) build() error {
	n := 0
	for {
		row, err := it.in.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		if err := it.x.charge(1); err != nil {
			return err
		}
		it.rows = append(it.rows, row)
		if n++; n%cancelCheckEvery == 0 {
			if err := it.x.cancelled(); err != nil {
				return err
			}
		}
	}
	sort.SliceStable(it.rows, func(i, j int) bool {
		a, b := it.rows[i], it.rows[j]
		for _, k := range it.keys {
			c := Compare(a[k.Col], b[k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	it.built = true
	return nil
}

func (it *sortIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if !it.built {
		if err := it.build(); err != nil {
			it.err = err
			return nil, err
		}
	}
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, nil
}

func (it *sortIter) Close() { it.in.Close(); it.rows = nil }

type limitIter struct {
	in   Rows
	skip int
	left int
	err  error
	done bool
}

func (it *limitIter) Next() (Row, error) {
	if it.err != nil {
		return nil, it.err
	}
	if it.done {
		return nil, nil
	}
	for it.skip > 0 {
		row, err := it.in.Next()
		if err != nil {
			it.err = err
			return nil, err
		}
		if row == nil {
			it.done = true
			return nil, nil
		}
		it.skip--
	}
	if it.left <= 0 {
		it.done = true
		return nil, nil
	}
	row, err := it.in.Next()
	if err != nil {
		it.err = err
		return nil, err
	}
	if row == nil {
		it.done = true
		return nil, nil
	}
	it.left--
	return row, nil
}

func (it *limitIter) Close() { it.in.Close() }
