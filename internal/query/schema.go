package query

import (
	"fmt"

	"ermia/internal/codec"
	"ermia/internal/engine"
)

// ColEnc names the physical encoding of one column inside a stored
// key/value pair, mirroring the internal/codec primitives. A Schema is a
// flat recipe — decode these fields, in this order — so it travels inside
// a Scan node and the executor needs no catalog.
type ColEnc uint8

const (
	// EncKeyU8 is a fixed-width uint8 key field (decodes to KindInt).
	EncKeyU8 ColEnc = iota
	// EncKeyU16 is a fixed-width big-endian uint16 key field.
	EncKeyU16
	// EncKeyU32 is a fixed-width big-endian uint32 key field.
	EncKeyU32
	// EncKeyU64 is a fixed-width big-endian uint64 key field. Values are
	// reinterpreted as int64; every schema in this repo stays below 2^63.
	EncKeyU64
	// EncKeyI64 is a sign-flipped big-endian int64 key field.
	EncKeyI64
	// EncKeyStr is an escaped, 0x00 0x01-terminated string key field.
	EncKeyStr
	// EncKeyRaw is the raw remaining key bytes as a string. It must be the
	// last key column; it matches tables whose keys are plain strings.
	EncKeyRaw
	// EncValU is a uvarint value field (decodes to KindInt).
	EncValU
	// EncValI is a zig-zag varint value field.
	EncValI
	// EncValF is a float64 value field (raw bits behind a uvarint).
	EncValF
	// EncValS is a length-prefixed string value field.
	EncValS
	// EncValRaw is the raw remaining value bytes as a string. It must be
	// the last value column; it matches tables whose values are plain
	// byte strings rather than codec tuples.
	EncValRaw

	encMax
)

// Column is one named field of a Schema. Names are carried in the plan so
// it stays self-describing; expressions address columns by index.
type Column struct {
	Name string
	Enc  ColEnc
}

// Schema describes how to turn one stored key/value pair into a Row: the
// key columns decode in order from the key bytes, then the value columns
// from the value bytes. The row a scan emits is Key ++ Val.
type Schema struct {
	Key []Column
	Val []Column
}

// Cols returns the row arity: len(Key) + len(Val).
func (s *Schema) Cols() int { return len(s.Key) + len(s.Val) }

// Col returns the row index of the named column, or -1 if absent.
// Key columns come first, in declaration order, then value columns.
func (s *Schema) Col(name string) int {
	for i, c := range s.Key {
		if c.Name == name {
			return i
		}
	}
	for i, c := range s.Val {
		if c.Name == name {
			return len(s.Key) + i
		}
	}
	return -1
}

// validate checks structural rules: at least one column, encodings in
// range and on the right side (key encodings in Key, value encodings in
// Val), raw tails only in last position.
func (s *Schema) validate() error {
	if s.Cols() == 0 {
		return fmt.Errorf("%w: schema has no columns", engine.ErrBadQueryPlan)
	}
	for i, c := range s.Key {
		if c.Enc > EncKeyRaw {
			return fmt.Errorf("%w: key column %d (%q) has value encoding %d", engine.ErrBadQueryPlan, i, c.Name, c.Enc)
		}
		if c.Enc == EncKeyRaw && i != len(s.Key)-1 {
			return fmt.Errorf("%w: raw key column %d (%q) must be last", engine.ErrBadQueryPlan, i, c.Name)
		}
	}
	for i, c := range s.Val {
		if c.Enc <= EncKeyRaw || c.Enc >= encMax {
			return fmt.Errorf("%w: value column %d (%q) has key encoding %d", engine.ErrBadQueryPlan, i, c.Name, c.Enc)
		}
		if c.Enc == EncValRaw && i != len(s.Val)-1 {
			return fmt.Errorf("%w: raw value column %d (%q) must be last", engine.ErrBadQueryPlan, i, c.Name)
		}
	}
	return nil
}

// DecodeKV decodes one stored pair into a Row following the schema.
// Trailing undecoded bytes are ignored, so a schema may name a prefix of
// the physical fields.
func (s *Schema) DecodeKV(key, val []byte) (Row, error) {
	row := make(Row, 0, s.Cols())
	kd := codec.DecodeKey(key)
	for _, c := range s.Key {
		switch c.Enc {
		case EncKeyU8:
			row = append(row, IntVal(int64(kd.Uint8())))
		case EncKeyU16:
			row = append(row, IntVal(int64(kd.Uint16())))
		case EncKeyU32:
			row = append(row, IntVal(int64(kd.Uint32())))
		case EncKeyU64:
			row = append(row, IntVal(int64(kd.Uint64())))
		case EncKeyI64:
			row = append(row, IntVal(kd.Int64()))
		case EncKeyStr:
			row = append(row, StrVal(kd.String()))
		case EncKeyRaw:
			row = append(row, StrVal(string(kd.Rest())))
		}
		if err := kd.Err(); err != nil {
			return nil, fmt.Errorf("%w: key column %q: %v", engine.ErrBadQueryPlan, c.Name, err)
		}
	}
	td := codec.DecodeTuple(val)
	for _, c := range s.Val {
		switch c.Enc {
		case EncValU:
			row = append(row, IntVal(int64(td.Uint64())))
		case EncValI:
			row = append(row, IntVal(td.Int64()))
		case EncValF:
			row = append(row, FloatVal(td.Float()))
		case EncValS:
			row = append(row, StrVal(td.String()))
		case EncValRaw:
			row = append(row, StrVal(string(td.Rest())))
		}
		if err := td.Err(); err != nil {
			return nil, fmt.Errorf("%w: value column %q: %v", engine.ErrBadQueryPlan, c.Name, err)
		}
	}
	return row, nil
}
