package tpcc

import (
	"testing"

	"ermia/internal/alloctest"
	"ermia/internal/codec"
)

// The row decoders the hot transactions call keep their string fields in the
// stored payload: decoding a row allocates nothing.
func TestRowDecodersDoNotAllocate(t *testing.T) {
	enc := codec.NewTuple(256)
	stock := (&Stock{Quantity: 50, Dist: "dist-info-0123456789-abcd", YTD: 3, Data: "original stock data"}).Encode(enc)
	supplier := (&Supplier{Name: "Supplier#000000007", NationKey: 7, Phone: "27-918-335-1736", AcctBal: 6820.35}).Encode(enc)
	customer := (&Customer{First: "first", Middle: "OE", Last: "BARBARBAR", Street: "street", City: "city",
		State: "CA", Zip: "123411111", Phone: "5551234567", Credit: "GC", Data: "customer data"}).Encode(enc)

	var st Stock
	var su Supplier
	var cu Customer
	for name, fn := range map[string]func(){
		"Stock":    func() { st = DecodeStock(stock) },
		"Supplier": func() { su = DecodeSupplier(supplier) },
		"Customer": func() { cu = DecodeCustomer(customer) },
	} {
		t.Run(name, func(t *testing.T) { alloctest.Budget(t, 0, fn) })
	}
	if st.Dist != "dist-info-0123456789-abcd" || st.Data != "original stock data" ||
		su.Phone != "27-918-335-1736" || cu.Last != "BARBARBAR" || cu.Data != "customer data" {
		t.Fatalf("decoded %+v %+v %+v", st, su, cu)
	}
}
