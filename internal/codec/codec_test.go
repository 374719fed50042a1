package codec

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ermia/internal/alloctest"
)

func TestKeyRoundTrip(t *testing.T) {
	k := NewKey(64).
		Uint8(7).
		Uint16(1234).
		Uint32(0xDEADBEEF).
		Uint64(math.MaxUint64 - 3).
		Int64(-42).
		String("hello\x00world").
		Bytes()

	d := DecodeKey(k)
	if got := d.Uint8(); got != 7 {
		t.Errorf("Uint8 = %d, want 7", got)
	}
	if got := d.Uint16(); got != 1234 {
		t.Errorf("Uint16 = %d, want 1234", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32 = %#x, want 0xDEADBEEF", got)
	}
	if got := d.Uint64(); got != math.MaxUint64-3 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d, want -42", got)
	}
	if got := d.String(); got != "hello\x00world" {
		t.Errorf("String = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
}

func TestKeyUint64Ordering(t *testing.T) {
	if err := quick.Check(func(a, b uint64) bool {
		ka := NewKey(8).Uint64(a).Bytes()
		kb := NewKey(8).Uint64(b).Bytes()
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyInt64Ordering(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		ka := NewKey(8).Int64(a).Bytes()
		kb := NewKey(8).Int64(b).Bytes()
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyStringOrdering(t *testing.T) {
	if err := quick.Check(func(a, b string) bool {
		ka := NewKey(16).String(a).Bytes()
		kb := NewKey(16).String(b).Bytes()
		cmp := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}, nil); err != nil {
		t.Error(err)
	}
}

// Composite keys must order by the first differing field, including when a
// string field is a prefix of the other.
func TestCompositeKeyOrdering(t *testing.T) {
	type row struct {
		w uint32
		s string
		i int64
	}
	rows := []row{
		{1, "abc", -5}, {1, "abc", 5}, {1, "ab", 100}, {2, "", -1},
		{1, "abd", 0}, {2, "a", 0}, {1, "", 0}, {1, "abc\x00", 0},
	}
	enc := func(r row) []byte {
		return NewKey(32).Uint32(r.w).String(r.s).Int64(r.i).Clone()
	}
	keys := make([][]byte, len(rows))
	for i, r := range rows {
		keys[i] = enc(r)
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if ra.w != rb.w {
			return ra.w < rb.w
		}
		if ra.s != rb.s {
			return ra.s < rb.s
		}
		return ra.i < rb.i
	})
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	for i, r := range rows {
		if !bytes.Equal(keys[i], enc(r)) {
			t.Fatalf("rank %d: key order diverges from logical order (row %+v)", i, r)
		}
	}
}

func TestKeyDecodeTruncated(t *testing.T) {
	d := DecodeKey([]byte{1, 2})
	d.Uint64()
	if d.Err() == nil {
		t.Error("expected truncation error")
	}
	d = DecodeKey(NewKey(8).String("no-term").Bytes()[:3])
	_ = d.String()
	if d.Err() == nil {
		t.Error("expected unterminated string error")
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tu := NewTuple(64).
		Uint64(99).
		Int64(-1234567).
		Float(3.14159).
		String("payload").
		Bytes()
	d := DecodeTuple(tu)
	if got := d.Uint64(); got != 99 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -1234567 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float(); got != 3.14159 {
		t.Errorf("Float = %v", got)
	}
	if got := d.String(); got != "payload" {
		t.Errorf("String = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestTupleQuickRoundTrip(t *testing.T) {
	if err := quick.Check(func(u uint64, i int64, f float64, s string) bool {
		b := NewTuple(32).Uint64(u).Int64(i).Float(f).String(s).Bytes()
		d := DecodeTuple(b)
		gu, gi, gf, gs := d.Uint64(), d.Int64(), d.Float(), d.String()
		if d.Err() != nil {
			return false
		}
		sameFloat := gf == f || (math.IsNaN(gf) && math.IsNaN(f))
		return gu == u && gi == i && sameFloat && gs == s
	}, nil); err != nil {
		t.Error(err)
	}
}

// A decoded string field aliases the tuple, so decoding a row allocates
// nothing.
func TestTupleDecodeInPlace(t *testing.T) {
	tu := NewTuple(64).String("district-info").Uint64(42).String("").Int64(-7).String("stock data").Clone()
	var a, b, c string
	alloctest.Budget(t, 0, func() {
		d := DecodeTuple(tu)
		a = d.String()
		d.Uint64()
		b = d.String()
		d.Int64()
		c = d.String()
	})
	if a != "district-info" || b != "" || c != "stock data" {
		t.Fatalf("decoded %q %q %q", a, b, c)
	}
}

func TestTupleDecodeErrors(t *testing.T) {
	d := DecodeTuple(nil)
	d.Uint64()
	if d.Err() == nil {
		t.Error("expected error decoding empty tuple")
	}
	// String length pointing past the end.
	b := NewTuple(8).Uint64(1000).Bytes()
	d = DecodeTuple(b)
	_ = d.String()
	if d.Err() == nil {
		t.Error("expected truncated string error")
	}
}

func TestEncoderReuse(t *testing.T) {
	e := NewKey(16)
	a := e.Uint64(1).Clone()
	b := e.Reset().Uint64(2).Clone()
	if bytes.Equal(a, b) {
		t.Error("Reset did not clear state")
	}
	if got := DecodeKey(a).Uint64(); got != 1 {
		t.Errorf("first key = %d, want 1", got)
	}
	if got := DecodeKey(b).Uint64(); got != 2 {
		t.Errorf("second key = %d, want 2", got)
	}
}

func BenchmarkKeyEncodeComposite(b *testing.B) {
	e := NewKey(32)
	for i := 0; i < b.N; i++ {
		e.Reset().Uint32(uint32(i)).Uint32(7).Uint64(uint64(i * 3))
	}
}

func BenchmarkTupleEncode(b *testing.B) {
	e := NewTuple(64)
	for i := 0; i < b.N; i++ {
		e.Reset().Uint64(uint64(i)).Int64(-int64(i)).String("abcdefgh")
	}
}

var sinkString string

// BenchmarkTupleDecode decodes a row shaped like a TPC-C stock row: three
// string fields and two integers.
func BenchmarkTupleDecode(b *testing.B) {
	tu := NewTuple(96).Int64(-42).String("dist-info-0123456789-abcd").Uint64(1 << 20).
		String("stock-data-padding").String("original").Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := DecodeTuple(tu)
		d.Int64()
		sinkString = d.String()
		d.Uint64()
		sinkString = d.String()
		sinkString = d.String()
	}
}
