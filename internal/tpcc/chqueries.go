package tpcc

// CH-benCHmark-style analytical queries over the TPC-C schema, expressed as
// internal/query plans. Each plan decodes the exact key/value layouts the
// OLTP transactions write (schema.go), so the analytical side needs no ETL:
// the same tables serve TPC-C writes and these scans concurrently, each
// query pinned to one SI snapshot. The set mirrors the flavour of CH
// queries Q1/Q3/Q4/Q6/Q13/Q14 (pricing summaries, unshipped-order value,
// order-size histograms, promotion revenue) restricted to the operators the
// plan algebra offers; every query has a deterministic output order so
// results are directly comparable across engines, snapshots, and replicas.

import "ermia/internal/query"

// OrderSchema decodes ORDER rows: key (w, d, o), value
// (cid, entry_d, carrier, ol_cnt, all_local).
func OrderSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{
			{Name: "w", Enc: query.EncKeyU32},
			{Name: "d", Enc: query.EncKeyU32},
			{Name: "o", Enc: query.EncKeyU64},
		},
		Val: []query.Column{
			{Name: "cid", Enc: query.EncValU},
			{Name: "entry_d", Enc: query.EncValU},
			{Name: "carrier", Enc: query.EncValU},
			{Name: "ol_cnt", Enc: query.EncValU},
			{Name: "all_local", Enc: query.EncValU},
		},
	}
}

// OrderLineSchema decodes ORDER-LINE rows: key (w, d, o, ol), value
// (iid, supply_w, delivery_d, qty, amount, dist_info).
func OrderLineSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{
			{Name: "w", Enc: query.EncKeyU32},
			{Name: "d", Enc: query.EncKeyU32},
			{Name: "o", Enc: query.EncKeyU64},
			{Name: "ol", Enc: query.EncKeyU32},
		},
		Val: []query.Column{
			{Name: "iid", Enc: query.EncValU},
			{Name: "supply_w", Enc: query.EncValU},
			{Name: "delivery_d", Enc: query.EncValU},
			{Name: "qty", Enc: query.EncValU},
			{Name: "amount", Enc: query.EncValF},
			{Name: "dist_info", Enc: query.EncValS},
		},
	}
}

// CustomerSchema decodes CUSTOMER rows: key (w, d, c) plus the spec's 17
// value fields.
func CustomerSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{
			{Name: "w", Enc: query.EncKeyU32},
			{Name: "d", Enc: query.EncKeyU32},
			{Name: "c", Enc: query.EncKeyU32},
		},
		Val: []query.Column{
			{Name: "first", Enc: query.EncValS},
			{Name: "middle", Enc: query.EncValS},
			{Name: "last", Enc: query.EncValS},
			{Name: "street", Enc: query.EncValS},
			{Name: "city", Enc: query.EncValS},
			{Name: "state", Enc: query.EncValS},
			{Name: "zip", Enc: query.EncValS},
			{Name: "phone", Enc: query.EncValS},
			{Name: "since", Enc: query.EncValU},
			{Name: "credit", Enc: query.EncValS},
			{Name: "credit_lim", Enc: query.EncValF},
			{Name: "discount", Enc: query.EncValF},
			{Name: "balance", Enc: query.EncValF},
			{Name: "ytd_payment", Enc: query.EncValF},
			{Name: "payment_cnt", Enc: query.EncValU},
			{Name: "delivery_cnt", Enc: query.EncValU},
			{Name: "data", Enc: query.EncValS},
		},
	}
}

// ItemSchema decodes ITEM rows: key (i), value (image_id, name, price, data).
func ItemSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{{Name: "i", Enc: query.EncKeyU32}},
		Val: []query.Column{
			{Name: "image_id", Enc: query.EncValU},
			{Name: "name", Enc: query.EncValS},
			{Name: "price", Enc: query.EncValF},
			{Name: "data", Enc: query.EncValS},
		},
	}
}

// SupplierSchema decodes SUPPLIER rows: key (su), value
// (name, nation, phone, acct_bal).
func SupplierSchema() query.Schema {
	return query.Schema{
		Key: []query.Column{{Name: "su", Enc: query.EncKeyU32}},
		Val: []query.Column{
			{Name: "name", Enc: query.EncValS},
			{Name: "nation", Enc: query.EncValU},
			{Name: "phone", Enc: query.EncValS},
			{Name: "acct_bal", Enc: query.EncValF},
		},
	}
}

// CHQuery is one named analytical query.
type CHQuery struct {
	Name string
	Plan *query.Plan
}

// CHPricingSummary is CH Q1's shape: per line-number pricing summary over
// the whole ORDER-LINE table — sum/avg of quantity and amount plus a line
// count, grouped by ol number, in line-number order.
func CHPricingSummary() *query.Plan {
	ol := query.Scan(TableOrderLine, OrderLineSchema())
	return query.NewPlan(query.OrderBy(
		query.Aggregate(ol, []int{3},
			query.Sum(query.Col(7)), query.Sum(query.Col(8)),
			query.Avg(query.Col(7)), query.Avg(query.Col(8)), query.Count()),
		query.SortKey{Col: 0},
	))
}

// CHUnshippedValue is CH Q3's shape: the value of undelivered orders —
// ORDER join ORDER-LINE on (w, d, o), carrier unassigned, total line amount
// per order, largest totals first.
func CHUnshippedValue(limit uint32) *query.Plan {
	ord := query.Filter(query.Scan(TableOrder, OrderSchema()),
		query.Eq(query.Col(5), query.ConstInt(0)))
	ol := query.Scan(TableOrderLine, OrderLineSchema())
	// Join output = order row (cols 0-7) ++ order-line row (cols 8-17);
	// col 16 is the line amount.
	j := query.HashJoin(ord, ol, []int{0, 1, 2}, []int{0, 1, 2})
	agg := query.Aggregate(j, []int{0, 1, 2}, query.Sum(query.Col(16)))
	sorted := query.OrderBy(agg,
		query.SortKey{Col: 3, Desc: true},
		query.SortKey{Col: 0}, query.SortKey{Col: 1}, query.SortKey{Col: 2})
	return query.NewPlan(query.Limit(sorted, 0, limit))
}

// CHOrderSizeHistogram is CH Q4's shape: how many orders have each line
// count, in line-count order.
func CHOrderSizeHistogram() *query.Plan {
	ord := query.Scan(TableOrder, OrderSchema())
	return query.NewPlan(query.OrderBy(
		query.Aggregate(ord, []int{6}, query.Count()),
		query.SortKey{Col: 0},
	))
}

// CHRevenueForecast is CH Q6's shape: total amount and line count for
// order lines in a quantity band.
func CHRevenueForecast(loQty, hiQty int64) *query.Plan {
	ol := query.Filter(query.Scan(TableOrderLine, OrderLineSchema()),
		query.And(
			query.Ge(query.Col(7), query.ConstInt(loQty)),
			query.Le(query.Col(7), query.ConstInt(hiQty))))
	return query.NewPlan(query.Aggregate(ol, nil,
		query.Sum(query.Col(8)), query.Count()))
}

// CHCustomerCredit is CH Q13's flavour: the customer population and balance
// totals per credit class (GC/BC), in class order.
func CHCustomerCredit() *query.Plan {
	cust := query.Scan(TableCustomer, CustomerSchema())
	return query.NewPlan(query.OrderBy(
		query.Aggregate(cust, []int{12},
			query.Count(), query.Sum(query.Col(15)), query.Avg(query.Col(15))),
		query.SortKey{Col: 0},
	))
}

// CHPromoRevenue is CH Q14's shape: ORDER-LINE join ITEM on the item id,
// revenue restricted to items priced above the threshold.
func CHPromoRevenue(minPrice float64) *query.Plan {
	ol := query.Scan(TableOrderLine, OrderLineSchema())
	item := query.Scan(TableItem, ItemSchema())
	// Join output = order-line row (cols 0-9) ++ item row (cols 10-14);
	// col 13 is the item price, col 8 the line amount.
	j := query.HashJoin(ol, item, []int{4}, []int{0})
	f := query.Filter(j, query.Gt(query.Col(13), query.ConstFloat(minPrice)))
	return query.NewPlan(query.Aggregate(f, nil,
		query.Sum(query.Col(8)), query.Count()))
}

// CHSupplierByNation aggregates the CH supplier relation per nation:
// supplier count and account-balance totals, in nation order.
func CHSupplierByNation() *query.Plan {
	su := query.Scan(TableSupplier, SupplierSchema())
	return query.NewPlan(query.OrderBy(
		query.Aggregate(su, []int{2},
			query.Count(), query.Sum(query.Col(4)), query.Avg(query.Col(4))),
		query.SortKey{Col: 0},
	))
}

// CHQueries is the benchmark's analytical mix: every CH-style query with
// workload-neutral parameters.
func CHQueries() []CHQuery {
	return []CHQuery{
		{Name: "Q1-pricing", Plan: CHPricingSummary()},
		{Name: "Q3-unshipped", Plan: CHUnshippedValue(10)},
		{Name: "Q4-ordersize", Plan: CHOrderSizeHistogram()},
		{Name: "Q6-forecast", Plan: CHRevenueForecast(1, 5)},
		{Name: "Q13-credit", Plan: CHCustomerCredit()},
		{Name: "Q14-promo", Plan: CHPromoRevenue(50)},
		{Name: "Q5-suppliers", Plan: CHSupplierByNation()},
	}
}
