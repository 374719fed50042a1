// Package query is the relational layer over the transactional engines: a
// volcano-style iterator tree (scan, filter, project, hash join, aggregate,
// sort, limit) evaluated over typed rows decoded from the engines' ordered
// key/value pairs. A plan is a small typed AST — not SQL — that runs
// wherever its transaction runs: embedded in the engine's process, or in a
// remote client over ordinary scan pages. Because every plan runs against
// one BeginReadOnly snapshot, long analytical queries observe a single
// consistent version of the database and never block or abort concurrent
// writers; on a streaming replica the same executor runs against the
// replica's pinned replay watermark unchanged.
package query

import (
	"math"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value. The query layer is deliberately
// narrow: three scalar kinds cover everything the storage codecs encode.
type Kind uint8

const (
	// KindInt is a signed 64-bit integer. Unsigned storage columns decode
	// into it too (all schema values in this repo fit in 63 bits).
	KindInt Kind = iota
	// KindFloat is an IEEE-754 float64.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Value is one scalar cell. Exactly one payload field is meaningful,
// selected by Kind; the others stay zero so Values compare cheaply.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// IntVal returns an integer Value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatVal returns a float Value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// StrVal returns a string Value.
func StrVal(s string) Value { return Value{Kind: KindString, Str: s} }

// Row is one tuple flowing through an iterator tree. Operators never
// mutate a Row they received; they allocate fresh slices for derived rows.
type Row []Value

// Compare totally orders two Values. Integers and floats compare
// numerically against each other (the integer is promoted); strings compare
// lexicographically; a numeric Value always orders before a string Value.
// NaN orders before every non-NaN float and equal to another NaN, which
// keeps sorting deterministic.
func Compare(a, b Value) int {
	an, bn := a.Kind != KindString, b.Kind != KindString
	if an != bn {
		if an {
			return -1
		}
		return 1
	}
	if !an {
		return strings.Compare(a.Str, b.Str)
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	}
	af, bf := a.asFloat(), b.asFloat()
	aNaN, bNaN := math.IsNaN(af), math.IsNaN(bf)
	switch {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return -1
	case bNaN:
		return 1
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}

func (v Value) asFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.Int)
	}
	return v.Float
}

// groupKey appends a canonical byte encoding of v to dst, used as the
// equality key for hash joins and GROUP BY. Unlike Compare it is strict
// about kinds: Int 1 and Float 1.0 are *different* group keys, which keeps
// the encoding injective without float canonicalization games.
func (v Value) groupKey(dst []byte) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		dst = appendU64(dst, uint64(v.Int))
	case KindFloat:
		dst = appendU64(dst, math.Float64bits(v.Float))
	default:
		dst = appendU64(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	}
	return dst
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// String renders a Value for diagnostics and examples.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	default:
		return v.Str
	}
}
