package server_test

import (
	"reflect"
	"testing"

	"ermia/internal/codec"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/server"
)

// wireKVSchema describes the test table: key Uint32(id), value tuple
// (Uint64 a).
func wireKVSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{{Name: "id", Enc: query.EncKeyU32}},
		Val: []query.Column{{Name: "a", Enc: query.EncValU}},
	}
}

// insertWireKV inserts rows id=lo..hi-1 (a=id%10) into table "kv" in one
// transaction on db, which may be the engine itself or a client.
func insertWireKV(t *testing.T, db engine.DB, lo, hi int) {
	t.Helper()
	tbl := db.CreateTable("kv")
	txn := db.Begin(0)
	for i := lo; i < hi; i++ {
		key := codec.NewKey(4).Uint32(uint32(i)).Clone()
		val := codec.NewTuple(8).Uint64(uint64(i % 10)).Clone()
		if err := txn.Insert(tbl, key, val); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryOverClient runs the query executor on the client side of the
// wire: a *client.Client is an engine.DB, so the operators pull ordinary
// MsgScan pages inside the client transaction's snapshot. It checks that a
// scan spanning many pages returns every row in key order, that a grouped
// aggregate matches the embedded result, and that a pinned read-only
// snapshot ignores rows another client commits after it. The table holds
// 3500 rows, so the scan spans four pages of the server's 1024.
func TestQueryOverClient(t *testing.T) {
	db := openCore(t, core.Config{})
	insertWireKV(t, db, 0, 3500)
	_, addr := serve(t, db, server.Config{})
	c := dial(t, addr, 2)

	scan := query.NewPlan(query.Scan("kv", wireKVSchema()))
	rows, err := query.RunReadOnly(c, 0, scan, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3500 {
		t.Fatalf("scan returned %d rows, want 3500", len(rows))
	}
	for i, row := range rows {
		if row[0].Int != int64(i) || row[1].Int != int64(i%10) {
			t.Fatalf("row %d = %v", i, row)
		}
	}

	// GROUP BY a: 10 groups of 350 rows each, summed over id.
	agg := query.NewPlan(query.OrderBy(
		query.Aggregate(query.Scan("kv", wireKVSchema()), []int{1},
			query.Count(), query.Sum(query.Col(0))),
		query.SortKey{Col: 0},
	))
	remote, err := query.RunReadOnly(c, 0, agg, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := query.RunReadOnly(db, 0, agg, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 10 || !reflect.DeepEqual(remote, local) {
		t.Fatalf("aggregate over client = %v, embedded = %v", remote, local)
	}

	// Pin a snapshot: the server takes it at the transaction's first
	// operation, so read one key before the other client writes.
	pinned := c.BeginReadOnly(0)
	defer pinned.Abort()
	if _, err := pinned.Get(c.OpenTable("kv"), codec.NewKey(4).Uint32(0).Clone()); err != nil {
		t.Fatal(err)
	}
	insertWireKV(t, dial(t, addr, 1), 3500, 3600)

	rows, err = query.Collect(pinned, c.OpenTable, scan, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3500 {
		t.Fatalf("pinned snapshot saw %d rows, want 3500", len(rows))
	}
	rows, err = query.RunReadOnly(c, 1, scan, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3600 {
		t.Fatalf("fresh snapshot saw %d rows, want 3600", len(rows))
	}
}
