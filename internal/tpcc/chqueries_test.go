package tpcc

// Differential tests for the CH-style plans: each query runs through the
// volcano executor and against a hand-rolled evaluation over the same
// snapshot's raw rows; the two must agree exactly (floats accumulate in the
// same scan order on both sides, so even sums compare bit-equal — a loose
// tolerance is kept only for quotient aggregates).

import (
	"math"
	"sort"
	"testing"

	"ermia/internal/codec"
	"ermia/internal/engine"
	"ermia/internal/query"
	"ermia/internal/xrand"
)

// Key-field extractors for the reference evaluations.
func olNumberOf(k []byte) uint32 {
	d := codec.DecodeKey(k)
	d.Uint32()
	d.Uint32()
	d.Uint64()
	return d.Uint32()
}

func orderKeyOf(k []byte) (w, dist uint32, o uint64) {
	d := codec.DecodeKey(k)
	return d.Uint32(), d.Uint32(), d.Uint64()
}

func itemKeyOf(k []byte) uint32 { return codec.DecodeKey(k).Uint32() }

// chDriver loads a small hybrid database and churns it with a short TPC-C
// mix so orders exist in every state (undelivered, delivered, new).
func chDriver(t testing.TB) (*Driver, engine.DB) {
	t.Helper()
	db := openERMIA(t, false)
	d := NewDriver(db, Config{Warehouses: 2, Items: 500, CustomersPerDistrict: 40})
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(0xc8)
	for i := 0; i < 200; i++ {
		kind := Pick(StandardMix, rng)
		if err := d.Run(kind, 0, rng); err != nil && !engine.IsRetryable(err) {
			t.Fatalf("churn txn %d (%v): %v", i, kind, err)
		}
	}
	return d, db
}

// chRun executes plan inside txn (so references can share the snapshot).
func chRun(t *testing.T, db engine.DB, txn engine.Txn, p *query.Plan) []query.Row {
	t.Helper()
	rows, err := query.Collect(txn, db.OpenTable, p, query.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows
}

func chClose(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestCHPricingSummaryMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	type acc struct {
		qty, cnt int64
		amount   float64
	}
	sums := map[int64]*acc{}
	var nums []int64
	err := txn.Scan(d.orderline, nil, nil, func(k, v []byte) bool {
		ol := DecodeOrderLine(v)
		n := int64(olNumberOf(k))
		a, ok := sums[n]
		if !ok {
			a = &acc{}
			sums[n] = a
			nums = append(nums, n)
		}
		a.qty += int64(ol.Quantity)
		a.amount += ol.Amount
		a.cnt++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })

	rows := chRun(t, db, txn, CHPricingSummary())
	if len(rows) != len(nums) {
		t.Fatalf("groups = %d, want %d", len(rows), len(nums))
	}
	for i, n := range nums {
		row, want := rows[i], sums[n]
		if row[0].Int != n || row[1].Int != want.qty || row[5].Int != want.cnt {
			t.Fatalf("group %d = %v, want ol=%d qty=%d cnt=%d", i, row, n, want.qty, want.cnt)
		}
		if row[2].Float != want.amount {
			t.Fatalf("group %d amount = %v, want %v", i, row[2].Float, want.amount)
		}
		if !chClose(row[3].Float, float64(want.qty)/float64(want.cnt)) ||
			!chClose(row[4].Float, want.amount/float64(want.cnt)) {
			t.Fatalf("group %d averages = %v", i, row)
		}
	}
}

func TestCHRevenueForecastMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	var amount float64
	var cnt int64
	err := txn.Scan(d.orderline, nil, nil, func(k, v []byte) bool {
		ol := DecodeOrderLine(v)
		if q := int64(ol.Quantity); q >= 1 && q <= 5 {
			amount += ol.Amount
			cnt++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := chRun(t, db, txn, CHRevenueForecast(1, 5))
	if len(rows) != 1 || rows[0][0].Float != amount || rows[0][1].Int != cnt {
		t.Fatalf("forecast = %v, want sum %v count %d", rows, amount, cnt)
	}
}

func TestCHOrderSizeHistogramMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	counts := map[int64]int64{}
	var sizes []int64
	err := txn.Scan(d.order, nil, nil, func(k, v []byte) bool {
		o := DecodeOrder(v)
		n := int64(o.OLCnt)
		if _, ok := counts[n]; !ok {
			sizes = append(sizes, n)
		}
		counts[n]++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })

	rows := chRun(t, db, txn, CHOrderSizeHistogram())
	if len(rows) != len(sizes) {
		t.Fatalf("histogram groups = %d, want %d", len(rows), len(sizes))
	}
	for i, n := range sizes {
		if rows[i][0].Int != n || rows[i][1].Int != counts[n] {
			t.Fatalf("bucket %d = %v, want (%d, %d)", i, rows[i], n, counts[n])
		}
	}
}

func TestCHUnshippedValueMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	// Reference: walk undelivered orders in key order, summing their lines.
	type ordKey struct {
		w, dist uint32
		o       uint64
	}
	var keys []ordKey
	err := txn.Scan(d.order, nil, nil, func(k, v []byte) bool {
		if DecodeOrder(v).CarrierID == 0 {
			w, dist, o := orderKeyOf(k)
			keys = append(keys, ordKey{w, dist, o})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	totals := map[ordKey]float64{}
	matched := map[ordKey]bool{}
	for _, k := range keys {
		lo, hi := OrderLinePrefix(int(k.w), int(k.dist), k.o)
		err := txn.Scan(d.orderline, lo, hi, func(_, v []byte) bool {
			totals[k] += DecodeOrderLine(v).Amount
			matched[k] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Inner join semantics: orders with no lines produce no group.
	joined := keys[:0]
	for _, k := range keys {
		if matched[k] {
			joined = append(joined, k)
		}
	}
	sort.SliceStable(joined, func(i, j int) bool {
		a, b := joined[i], joined[j]
		if totals[a] != totals[b] {
			return totals[a] > totals[b]
		}
		if a.w != b.w {
			return a.w < b.w
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		return a.o < b.o
	})
	const limit = 10
	if len(joined) > limit {
		joined = joined[:limit]
	}

	rows := chRun(t, db, txn, CHUnshippedValue(limit))
	if len(rows) != len(joined) {
		t.Fatalf("rows = %d, want %d", len(rows), len(joined))
	}
	for i, k := range joined {
		row := rows[i]
		if row[0].Int != int64(k.w) || row[1].Int != int64(k.dist) || row[2].Int != int64(k.o) {
			t.Fatalf("row %d key = %v, want %+v", i, row, k)
		}
		if row[3].Float != totals[k] {
			t.Fatalf("row %d total = %v, want %v", i, row[3].Float, totals[k])
		}
	}
}

func TestCHCustomerCreditMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	type acc struct {
		cnt     int64
		balance float64
	}
	sums := map[string]*acc{}
	var classes []string
	err := txn.Scan(d.customer, nil, nil, func(_, v []byte) bool {
		c := DecodeCustomer(v)
		a, ok := sums[c.Credit]
		if !ok {
			a = &acc{}
			sums[c.Credit] = a
			classes = append(classes, c.Credit)
		}
		a.cnt++
		a.balance += c.Balance
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(classes)

	rows := chRun(t, db, txn, CHCustomerCredit())
	if len(rows) != len(classes) {
		t.Fatalf("classes = %d, want %d", len(rows), len(classes))
	}
	for i, cl := range classes {
		row, want := rows[i], sums[cl]
		if row[0].Str != cl || row[1].Int != want.cnt || row[2].Float != want.balance {
			t.Fatalf("class %d = %v, want (%s, %d, %v)", i, row, cl, want.cnt, want.balance)
		}
		if !chClose(row[3].Float, want.balance/float64(want.cnt)) {
			t.Fatalf("class %d avg = %v", i, row)
		}
	}
}

func TestCHPromoRevenueMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	prices := map[uint32]float64{}
	err := txn.Scan(d.item, nil, nil, func(k, v []byte) bool {
		prices[itemKeyOf(k)] = DecodeItem(v).Price
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var amount float64
	var cnt int64
	err = txn.Scan(d.orderline, nil, nil, func(_, v []byte) bool {
		ol := DecodeOrderLine(v)
		if p, ok := prices[ol.IID]; ok && p > 50 {
			amount += ol.Amount
			cnt++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := chRun(t, db, txn, CHPromoRevenue(50))
	if len(rows) != 1 || rows[0][0].Float != amount || rows[0][1].Int != cnt {
		t.Fatalf("promo = %v, want sum %v count %d", rows, amount, cnt)
	}
}

func TestCHSupplierByNationMatchesRawScan(t *testing.T) {
	d, db := chDriver(t)
	txn := db.BeginReadOnly(1)
	defer txn.Abort()

	type acc struct {
		cnt int64
		bal float64
	}
	sums := map[int64]*acc{}
	var nations []int64
	err := txn.Scan(d.supplier, nil, nil, func(_, v []byte) bool {
		s := DecodeSupplier(v)
		n := int64(s.NationKey)
		a, ok := sums[n]
		if !ok {
			a = &acc{}
			sums[n] = a
			nations = append(nations, n)
		}
		a.cnt++
		a.bal += s.AcctBal
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(nations, func(i, j int) bool { return nations[i] < nations[j] })

	rows := chRun(t, db, txn, CHSupplierByNation())
	if len(rows) != len(nations) {
		t.Fatalf("nations = %d, want %d", len(rows), len(nations))
	}
	for i, n := range nations {
		row, want := rows[i], sums[n]
		if row[0].Int != n || row[1].Int != want.cnt || row[2].Float != want.bal {
			t.Fatalf("nation %d = %v, want (%d, %d, %v)", i, row, n, want.cnt, want.bal)
		}
	}
}

// TestCHQueriesValidate checks every shipped query is a valid plan.
func TestCHQueriesValidate(t *testing.T) {
	for _, q := range CHQueries() {
		if err := q.Plan.Validate(); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

// BenchmarkCHQueries times each CH-style plan on the chDriver database with
// no concurrent writers: one fresh snapshot per run, as ermia.RunQuery
// takes. rows/op is the result cardinality.
func BenchmarkCHQueries(b *testing.B) {
	_, db := chDriver(b)
	for _, q := range CHQueries() {
		b.Run(q.Name, func(b *testing.B) {
			var rows int
			for i := 0; i < b.N; i++ {
				out, err := query.RunReadOnly(db, 0, q.Plan, query.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(out)
			}
			b.ReportMetric(float64(rows), "rows/op")
		})
	}
}
