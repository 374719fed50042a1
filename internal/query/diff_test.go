package query

// Differential testing: each operator versus a naive in-memory evaluation
// over the same snapshot. The reference implementations below share the
// expression evaluator (Expr.Eval — its semantics are pinned separately in
// exec_test.go) but reimplement every operator the dumb way: scans filter a
// pre-materialized table copy, joins are nested loops, grouping is a linear
// scan over group keys, sorting is insertion sort. 60+ seeded random plans
// over two tables must agree row-for-row, in order.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ermia/internal/engine"
	"ermia/internal/xrand"
)

// refTable is one materialized table: raw pairs in key order.
type refPair struct{ key, val []byte }

type refDB map[string][]refPair

func materialize(t *testing.T, txn engine.Txn, db engine.DB, names ...string) refDB {
	t.Helper()
	out := make(refDB)
	for _, name := range names {
		tbl := db.OpenTable(name)
		var pairs []refPair
		err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
			pairs = append(pairs, refPair{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		if err != nil {
			t.Fatalf("materialize %s: %v", name, err)
		}
		out[name] = pairs
	}
	return out
}

// refRun evaluates a plan naively against the materialized tables.
func refRun(rdb refDB, n *Node) ([]Row, error) {
	switch n.Kind {
	case NodeScan:
		pairs, ok := rdb[n.Table]
		if !ok {
			return nil, fmt.Errorf("%w: unknown table %q", engine.ErrBadQueryPlan, n.Table)
		}
		var out []Row
		for _, p := range pairs {
			if n.Lo != nil && bytes.Compare(p.key, n.Lo) < 0 {
				continue
			}
			if n.Hi != nil && bytes.Compare(p.key, n.Hi) >= 0 {
				continue
			}
			row, err := n.Schema.DecodeKV(p.key, p.val)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		return out, nil
	case NodeFilter:
		in, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		var out []Row
		for _, row := range in {
			v, err := n.Pred.Eval(row)
			if err != nil {
				return nil, err
			}
			if v.Kind != KindInt {
				return nil, typeErr("filter predicate not boolean")
			}
			if v.Int != 0 {
				out = append(out, row)
			}
		}
		return out, nil
	case NodeProject:
		in, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		var out []Row
		for _, row := range in {
			nr := make(Row, len(n.Exprs))
			for i, e := range n.Exprs {
				if nr[i], err = e.Eval(row); err != nil {
					return nil, err
				}
			}
			out = append(out, nr)
		}
		return out, nil
	case NodeHashJoin:
		left, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		right, err := refRun(rdb, n.Right)
		if err != nil {
			return nil, err
		}
		var out []Row
		for _, l := range left {
			for _, r := range right {
				match := true
				for i := range n.LeftKeys {
					if !refValEqual(l[n.LeftKeys[i]], r[n.RightKeys[i]]) {
						match = false
						break
					}
				}
				if match {
					joined := append(append(Row{}, l...), r...)
					out = append(out, joined)
				}
			}
		}
		return out, nil
	case NodeAggregate:
		in, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		type refGroup struct {
			key  []Value
			rows []Row
		}
		var groups []*refGroup
	nextRow:
		for _, row := range in {
			key := make([]Value, len(n.GroupBy))
			for i, c := range n.GroupBy {
				key[i] = row[c]
			}
			for _, g := range groups {
				same := true
				for i := range key {
					if !refValEqual(key[i], g.key[i]) {
						same = false
						break
					}
				}
				if same {
					g.rows = append(g.rows, row)
					continue nextRow
				}
			}
			groups = append(groups, &refGroup{key: key, rows: []Row{row}})
		}
		if len(n.GroupBy) == 0 && len(groups) == 0 {
			groups = append(groups, &refGroup{})
		}
		var out []Row
		for _, g := range groups {
			res := append(Row{}, g.key...)
			for _, spec := range n.Aggs {
				v, err := refAgg(spec, g.rows)
				if err != nil {
					return nil, err
				}
				res = append(res, v)
			}
			out = append(out, res)
		}
		return out, nil
	case NodeSort:
		in, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		out := append([]Row{}, in...)
		// Insertion sort: stable by construction.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && refLess(out[j], out[j-1], n.Keys); j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out, nil
	case NodeLimit:
		in, err := refRun(rdb, n.Left)
		if err != nil {
			return nil, err
		}
		off := int(n.Offset)
		if off > len(in) {
			return nil, nil
		}
		in = in[off:]
		if int(n.Count) < len(in) {
			in = in[:n.Count]
		}
		return in, nil
	}
	return nil, planErr("refRun: bad kind %d", n.Kind)
}

// refValEqual mirrors the executor's strict join/group key equality:
// same kind, same bits.
func refValEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	default:
		return a.Str == b.Str
	}
}

func refLess(a, b Row, keys []SortKey) bool {
	for _, k := range keys {
		c := Compare(a[k.Col], b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func refAgg(spec AggSpec, rows []Row) (Value, error) {
	if spec.Fn == AggCount {
		return IntVal(int64(len(rows))), nil
	}
	var vals []Value
	for _, row := range rows {
		v, err := spec.Arg.Eval(row)
		if err != nil {
			return Value{}, err
		}
		vals = append(vals, v)
	}
	switch spec.Fn {
	case AggSum, AggAvg:
		// Mirror the executor's promotion rule *procedurally*: ints sum in
		// int64 until the first float arrives, then everything continues in
		// float64 — replaying the same addition order keeps float results
		// bit-comparable up to tolerance.
		var si int64
		var sf float64
		isFloat := false
		n := 0
		for _, v := range vals {
			switch v.Kind {
			case KindInt:
				if isFloat {
					sf += float64(v.Int)
				} else {
					si += v.Int
				}
			case KindFloat:
				if !isFloat {
					isFloat = true
					sf = float64(si)
				}
				sf += v.Float
			default:
				return Value{}, typeErr("SUM/AVG over a string value")
			}
			n++
		}
		if n == 0 {
			return IntVal(0), nil
		}
		if spec.Fn == AggSum {
			if isFloat {
				return FloatVal(sf), nil
			}
			return IntVal(si), nil
		}
		if isFloat {
			return FloatVal(sf / float64(n)), nil
		}
		return FloatVal(float64(si) / float64(n)), nil
	case AggMin, AggMax:
		if len(vals) == 0 {
			return IntVal(0), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (spec.Fn == AggMin && c < 0) || (spec.Fn == AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Value{}, typeErr("refAgg: bad fn %d", spec.Fn)
}

// ---- random plan generation ----

// genExpr builds a random boolean expression over the kv row layout
// (0:id int, 1:a int, 2:b int, 3:f float, 4:s str), well-typed by
// construction. Arity must be ≥ 5 (kv alone or kv-join output).
func genBoolExpr(r *xrand.Rand, depth int) *Expr {
	if depth <= 0 || r.Bool(0.5) {
		// leaf comparison
		switch r.Intn(4) {
		case 0:
			return cmp(uint8(r.Intn(6)), Col(0), ConstInt(int64(r.Intn(120)-10)))
		case 1:
			return cmp(uint8(r.Intn(6)), Col(3), ConstFloat(float64(r.Intn(100))/4))
		case 2:
			return cmp(uint8(r.Intn(6)), Col(4), ConstStr(fmt.Sprintf("s%d", r.Intn(6))))
		default:
			return cmp(uint8(r.Intn(6)),
				Add(Col(1), Mul(Col(2), ConstInt(int64(r.Intn(3)+1)))),
				ConstInt(int64(r.Intn(200)-100)))
		}
	}
	l := genBoolExpr(r, depth-1)
	rhs := genBoolExpr(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return And(l, rhs)
	case 1:
		return Or(l, rhs)
	default:
		return Not(l)
	}
}

// genPlan builds a random valid plan over tables kv (100 rows) and dim
// (10 rows). The first five columns are always kv's layout, so
// genBoolExpr stays well-typed against any generated input.
func genPlan(r *xrand.Rand) *Plan {
	var node *Node = Scan("kv", kvSchema())
	if r.Bool(0.3) {
		// random primary-key range
		lo := uint32(r.Intn(80))
		hi := lo + uint32(r.Intn(40))
		node = ScanRange("kv", kvSchema(), u32key(lo), u32key(hi))
	}
	if r.Bool(0.4) {
		node = HashJoin(node, Scan("dim", dimSchema()), []int{1}, []int{0})
	}
	if r.Bool(0.7) {
		node = Filter(node, genBoolExpr(r, 2))
	}
	arity := node.Arity()
	switch r.Intn(3) {
	case 0:
		// aggregate, grouped or streaming
		var groupBy []int
		if r.Bool(0.7) {
			groupBy = []int{r.Intn(2) + 1} // group by a (int) or b (int)
			if r.Bool(0.3) {
				groupBy = append(groupBy, 4) // plus s
			}
		}
		aggs := []AggSpec{Count()}
		if r.Bool(0.8) {
			aggs = append(aggs, Sum(Col(0)))
		}
		if r.Bool(0.6) {
			aggs = append(aggs, Avg(Col(3)))
		}
		if r.Bool(0.5) {
			aggs = append(aggs, Min(Col(4)), Max(Col(0)))
		}
		node = Aggregate(node, groupBy, aggs...)
		if r.Bool(0.6) {
			node = OrderBy(node, SortKey{Col: 0, Desc: r.Bool(0.5)}, SortKey{Col: len(groupBy), Desc: false})
		}
	case 1:
		if r.Bool(0.5) {
			exprs := []*Expr{Col(0), Col(4), Add(Col(1), Col(2)), ToFloat(Col(0))}
			node = Project(node, exprs[:r.Intn(3)+2]...)
			arity = node.Arity()
		}
		node = OrderBy(node, SortKey{Col: r.Intn(arity), Desc: r.Bool(0.5)}, SortKey{Col: 0})
	default:
		// plain pipeline, maybe projected
		if r.Bool(0.5) {
			node = Project(node, Col(0), Sub(Col(2), Col(1)), Col(3))
		}
	}
	if r.Bool(0.4) {
		node = Limit(node, uint32(r.Intn(5)), uint32(r.Intn(60)+1))
	}
	return NewPlan(node)
}

func u32key(v uint32) []byte {
	return []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// valuesClose compares cell values, allowing small relative error on
// floats (the executor and the reference may round differently only
// through AVG division; sums replay the identical addition order).
func valuesClose(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == KindFloat {
		if math.IsNaN(a.Float) && math.IsNaN(b.Float) {
			return true
		}
		diff := math.Abs(a.Float - b.Float)
		scale := math.Max(math.Abs(a.Float), math.Abs(b.Float))
		return diff <= 1e-9*math.Max(scale, 1)
	}
	return refValEqual(a, b)
}

func TestDifferentialRandomPlans(t *testing.T) {
	db := openDB(t)
	loadKV(t, db, 100)
	loadDim(t, db, 10)

	const seeds = 64
	checked := 0
	for seed := uint64(0); seed < seeds; seed++ {
		r := xrand.New2(0xd1ff, seed)
		p := genPlan(r)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}
		txn := db.BeginReadOnly(1)
		got, gotErr := Collect(txn, db.OpenTable, p, Options{})
		rdb := materialize(t, txn, db, "kv", "dim")
		txn.Abort()
		want, wantErr := refRun(rdb, p.Root)

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: exec err %v, reference err %v", seed, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows vs reference %d\nplan rows: %v\nref rows: %v",
				seed, len(got), len(want), got, want)
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("seed %d row %d: arity %d vs %d", seed, i, len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if !valuesClose(got[i][j], want[i][j]) {
					t.Fatalf("seed %d row %d col %d: %v vs reference %v\nrow:  %v\nref:  %v",
						seed, i, j, got[i][j], want[i][j], got[i], want[i])
				}
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d plans executed successfully; want ≥ 50 of %d", checked, seeds)
	}
}
