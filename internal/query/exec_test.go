package query

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ermia/internal/codec"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/wal"
)

func openDB(t *testing.T) engine.DB {
	t.Helper()
	db, err := core.Open(core.Config{
		WAL:        wal.Config{SegmentSize: 8 << 20, BufferSize: 1 << 20},
		GCInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("core.Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// kvSchema describes the "kv" test table: key Uint32(id), value tuple
// (Uint64 a, Int64 b, Float f, String s).
func kvSchema() Schema {
	return Schema{
		Key: []Column{{Name: "id", Enc: EncKeyU32}},
		Val: []Column{
			{Name: "a", Enc: EncValU},
			{Name: "b", Enc: EncValI},
			{Name: "f", Enc: EncValF},
			{Name: "s", Enc: EncValS},
		},
	}
}

// loadKV populates "kv" with n deterministic rows: id=i, a=i%7, b=i-50,
// f=i/4.0, s="s<i%5>".
func loadKV(t *testing.T, db engine.DB, n int) {
	t.Helper()
	tbl := db.CreateTable("kv")
	txn := db.Begin(0)
	for i := 0; i < n; i++ {
		key := codec.NewKey(4).Uint32(uint32(i)).Clone()
		val := codec.NewTuple(32).
			Uint64(uint64(i % 7)).
			Int64(int64(i) - 50).
			Float(float64(i) / 4).
			String(fmt.Sprintf("s%d", i%5)).
			Clone()
		if err := txn.Insert(tbl, key, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit load: %v", err)
	}
}

// dimSchema describes the "dim" table: key Uint32(k), value (String name,
// Uint64 m).
func dimSchema() Schema {
	return Schema{
		Key: []Column{{Name: "k", Enc: EncKeyU32}},
		Val: []Column{{Name: "name", Enc: EncValS}, {Name: "m", Enc: EncValU}},
	}
}

func loadDim(t *testing.T, db engine.DB, n int) {
	t.Helper()
	tbl := db.CreateTable("dim")
	txn := db.Begin(0)
	for i := 0; i < n; i++ {
		key := codec.NewKey(4).Uint32(uint32(i)).Clone()
		val := codec.NewTuple(16).String(fmt.Sprintf("dim-%d", i)).Uint64(uint64(i * 10)).Clone()
		if err := txn.Insert(tbl, key, val); err != nil {
			t.Fatalf("insert dim %d: %v", i, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit dim: %v", err)
	}
}

func runPlan(t *testing.T, db engine.DB, p *Plan) []Row {
	t.Helper()
	rows, err := RunReadOnly(db, 1, p, Options{})
	if err != nil {
		t.Fatalf("RunReadOnly: %v", err)
	}
	return rows
}

func TestScanDecodesAllRows(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 1000) // > scanPageRows, exercises page-boundary resume
	rows := runPlan(t, db, NewPlan(Scan("kv", kvSchema())))
	if len(rows) != 1000 {
		t.Fatalf("got %d rows, want 1000", len(rows))
	}
	for i, row := range rows {
		if len(row) != 5 {
			t.Fatalf("row %d arity %d, want 5", i, len(row))
		}
		if row[0].Int != int64(i) {
			t.Fatalf("row %d: id %v (scan not in key order?)", i, row[0])
		}
		if row[1].Int != int64(i%7) || row[2].Int != int64(i)-50 {
			t.Fatalf("row %d: bad ints %v %v", i, row[1], row[2])
		}
		if row[3].Float != float64(i)/4 {
			t.Fatalf("row %d: bad float %v", i, row[3])
		}
		if row[4].Str != fmt.Sprintf("s%d", i%5) {
			t.Fatalf("row %d: bad string %q", i, row[4].Str)
		}
	}
}

func TestScanRange(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 100)
	lo := codec.NewKey(4).Uint32(10).Clone()
	hi := codec.NewKey(4).Uint32(20).Clone()
	rows := runPlan(t, db, NewPlan(ScanRange("kv", kvSchema(), lo, hi)))
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	if rows[0][0].Int != 10 || rows[9][0].Int != 19 {
		t.Fatalf("range bounds wrong: first %v last %v", rows[0][0], rows[9][0])
	}
}

func TestFilterProject(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 100)
	// id >= 90 AND s = "s0" → ids 90, 95; project (id, id*2)
	p := NewPlan(Project(
		Filter(Scan("kv", kvSchema()),
			And(Ge(Col(0), ConstInt(90)), Eq(Col(4), ConstStr("s0")))),
		Col(0), Mul(Col(0), ConstInt(2)),
	))
	rows := runPlan(t, db, p)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(rows), rows)
	}
	if rows[0][0].Int != 90 || rows[0][1].Int != 180 || rows[1][0].Int != 95 {
		t.Fatalf("bad rows: %v", rows)
	}
}

func TestHashJoin(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 30)
	loadDim(t, db, 10)
	// join kv.a (= id%7, col 1) with dim.k (col 0): every kv row with a<10 matches.
	p := NewPlan(HashJoin(
		Scan("kv", kvSchema()),
		Scan("dim", dimSchema()),
		[]int{1}, []int{0},
	))
	rows := runPlan(t, db, p)
	if len(rows) != 30 {
		t.Fatalf("got %d joined rows, want 30", len(rows))
	}
	for _, row := range rows {
		if len(row) != 8 {
			t.Fatalf("joined arity %d, want 8", len(row))
		}
		if row[1].Int != row[5].Int {
			t.Fatalf("join key mismatch: %v vs %v", row[1], row[5])
		}
		if want := fmt.Sprintf("dim-%d", row[1].Int); row[6].Str != want {
			t.Fatalf("joined name %q, want %q", row[6].Str, want)
		}
	}
}

func TestAggregateGrouped(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 70) // a = id%7 → 7 groups of 10
	p := NewPlan(Aggregate(Scan("kv", kvSchema()),
		[]int{1}, Count(), Sum(Col(0)), Min(Col(0)), Max(Col(0)), Avg(Col(3))))
	rows := runPlan(t, db, p)
	if len(rows) != 7 {
		t.Fatalf("got %d groups, want 7", len(rows))
	}
	// Groups appear in first-seen order: a=0 first (from id 0).
	for gi, row := range rows {
		a := row[0].Int
		if a != int64(gi) {
			t.Fatalf("group %d: key %d (first-seen order broken)", gi, a)
		}
		if row[1].Int != 10 {
			t.Fatalf("group %d: count %v", gi, row[1])
		}
		// ids in group a: a, a+7, ..., a+63 → sum = 10a + 7*45
		if want := 10*a + 7*45; row[2].Int != want {
			t.Fatalf("group %d: sum %v, want %d", gi, row[2], want)
		}
		if row[3].Int != a || row[4].Int != a+63 {
			t.Fatalf("group %d: min/max %v/%v", gi, row[3], row[4])
		}
		// f = id/4 → avg = (10a + 7*45)/10/4
		if want := float64(10*a+7*45) / 40; row[5].Float != want {
			t.Fatalf("group %d: avg %v, want %v", gi, row[5], want)
		}
	}
}

func TestAggregateEmptyStreaming(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 10)
	p := NewPlan(Aggregate(
		Filter(Scan("kv", kvSchema()), Lt(Col(0), ConstInt(0))), // matches nothing
		nil, Count(), Sum(Col(0)), Min(Col(0))))
	rows := runPlan(t, db, p)
	if len(rows) != 1 {
		t.Fatalf("empty streaming aggregate: got %d rows, want 1", len(rows))
	}
	for i, v := range rows[0] {
		if v.Kind != KindInt || v.Int != 0 {
			t.Fatalf("empty aggregate col %d = %v, want Int 0", i, v)
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 50)
	// sort by s asc then id desc, skip 2, take 3
	p := NewPlan(Limit(
		OrderBy(Scan("kv", kvSchema()), SortKey{Col: 4}, SortKey{Col: 0, Desc: true}),
		2, 3))
	rows := runPlan(t, db, p)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// s="s0" group is ids {0,5,...,45} sorted desc: 45,40,35,30,... → after
	// skipping 2: 35, 30, 25.
	want := []int64{35, 30, 25}
	for i, w := range want {
		if rows[i][4].Str != "s0" || rows[i][0].Int != w {
			t.Fatalf("row %d = (%v, %v), want (s0, %d)", i, rows[i][4], rows[i][0], w)
		}
	}
}

func TestSecondaryIndexRangeScan(t *testing.T) {
	db := openDB(t)
	// A "secondary index" here is what the repo's schemas actually build:
	// a separate table whose key is the secondary attribute + primary key
	// and whose value is the primary key bytes. Range-scan it, then join
	// the primary table on the stored primary id.
	loadKV(t, db, 40)
	idx := db.CreateTable("kv_b_idx")
	txn := db.Begin(0)
	for i := 0; i < 40; i++ {
		b := int64(i) - 50
		key := codec.NewKey(12).Int64(b).Uint32(uint32(i)).Clone()
		val := codec.NewTuple(4).Uint64(uint64(i)).Clone()
		if err := txn.Insert(idx, key, val); err != nil {
			t.Fatalf("insert idx: %v", err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit idx: %v", err)
	}
	idxSchema := Schema{
		Key: []Column{{Name: "b", Enc: EncKeyI64}, {Name: "id", Enc: EncKeyU32}},
		Val: []Column{{Name: "pk", Enc: EncValU}},
	}
	lo := codec.NewKey(8).Int64(-45).Clone()
	hi := codec.NewKey(8).Int64(-40).Clone()
	p := NewPlan(HashJoin(
		ScanRange("kv_b_idx", idxSchema, lo, hi), // b in [-45,-40) → ids 5..9
		Scan("kv", kvSchema()),
		[]int{2}, []int{0},
	))
	rows := runPlan(t, db, p)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, row := range rows {
		if row[3].Int != int64(5+i) || row[3].Int != row[2].Int {
			t.Fatalf("row %d: joined primary id %v (idx pk %v)", i, row[3], row[2])
		}
	}
}

func TestMaxRowsOverflow(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 100)
	_, err := RunReadOnly(db, 1, NewPlan(Scan("kv", kvSchema())), Options{MaxRows: 10})
	if !errors.Is(err, engine.ErrQueryOverflow) {
		t.Fatalf("err = %v, want ErrQueryOverflow", err)
	}
	// Materializing operators (sort here) hit the same budget.
	_, err = RunReadOnly(db, 1,
		NewPlan(Limit(OrderBy(Scan("kv", kvSchema()), SortKey{Col: 0}), 0, 1)),
		Options{MaxRows: 10})
	if !errors.Is(err, engine.ErrQueryOverflow) {
		t.Fatalf("sort err = %v, want ErrQueryOverflow", err)
	}
}

func TestCancellation(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 1000)
	calls := 0
	txn := db.BeginReadOnly(1)
	defer txn.Abort()
	it, err := Run(txn, db.OpenTable, NewPlan(Scan("kv", kvSchema())), Options{
		Cancel: func() bool { calls++; return calls > 1 },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer it.Close()
	var n int
	for {
		row, err := it.Next()
		if err != nil {
			if !errors.Is(err, engine.ErrQueryCancelled) {
				t.Fatalf("err = %v, want ErrQueryCancelled", err)
			}
			break
		}
		if row == nil {
			t.Fatalf("query finished (%d rows) without observing cancellation", n)
		}
		n++
	}
	if n == 0 || n >= 1000 {
		t.Fatalf("cancelled after %d rows; want mid-stream", n)
	}
}

func TestUnknownTableAndBadPlans(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 10)
	if _, err := RunReadOnly(db, 1, NewPlan(Scan("nope", kvSchema())), Options{}); !errors.Is(err, engine.ErrBadQueryPlan) {
		t.Fatalf("unknown table: err = %v, want ErrBadQueryPlan", err)
	}
	bad := []*Plan{
		nil,
		NewPlan(nil),
		NewPlan(Filter(Scan("kv", kvSchema()), Col(99))), // col out of range
		NewPlan(Project(Scan("kv", kvSchema()))),         // zero columns
		NewPlan(HashJoin(Scan("kv", kvSchema()), Scan("kv", kvSchema()), []int{0}, nil)),
		NewPlan(Aggregate(Scan("kv", kvSchema()), nil)),                      // computes nothing
		NewPlan(Aggregate(Scan("kv", kvSchema()), nil, AggSpec{Fn: AggSum})), // SUM without arg
		NewPlan(OrderBy(Scan("kv", kvSchema()))),                             // no keys
		NewPlan(Scan("", kvSchema())),                                        // unnamed table
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, engine.ErrBadQueryPlan) {
			t.Fatalf("bad plan %d: Validate = %v, want ErrBadQueryPlan", i, err)
		}
	}
	// Runtime type error: arithmetic over a string column.
	_, err := RunReadOnly(db, 1,
		NewPlan(Project(Scan("kv", kvSchema()), Add(Col(4), ConstInt(1)))), Options{})
	if !errors.Is(err, engine.ErrBadQueryPlan) {
		t.Fatalf("string arithmetic: err = %v, want ErrBadQueryPlan", err)
	}
}
