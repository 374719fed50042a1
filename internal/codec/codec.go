// Package codec provides order-preserving key encoding and compact tuple
// encoding for table records.
//
// Keys produced by KeyEncoder compare bytewise in the same order as the
// encoded field values compare, which lets the concurrent B+tree index
// (internal/index) order composite keys without schema knowledge. Tuples
// produced by TupleEncoder are a flat field list with no ordering guarantee,
// used for record payloads.
package codec

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// KeyEncoder builds a composite, order-preserving binary key.
// The zero value is ready to use.
type KeyEncoder struct {
	buf []byte
}

// NewKey returns a KeyEncoder with capacity for about n bytes.
func NewKey(n int) *KeyEncoder { return &KeyEncoder{buf: make([]byte, 0, n)} }

// Reset discards any encoded fields, retaining the buffer.
func (e *KeyEncoder) Reset() *KeyEncoder {
	e.buf = e.buf[:0]
	return e
}

// Uint8 appends a fixed-width uint8 field.
func (e *KeyEncoder) Uint8(v uint8) *KeyEncoder {
	e.buf = append(e.buf, v)
	return e
}

// Uint16 appends a fixed-width big-endian uint16 field.
func (e *KeyEncoder) Uint16(v uint16) *KeyEncoder {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	return e
}

// Uint32 appends a fixed-width big-endian uint32 field.
func (e *KeyEncoder) Uint32(v uint32) *KeyEncoder {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// Uint64 appends a fixed-width big-endian uint64 field.
func (e *KeyEncoder) Uint64(v uint64) *KeyEncoder {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// Int64 appends a sign-flipped big-endian int64 field so negative values
// sort before positive ones.
func (e *KeyEncoder) Int64(v int64) *KeyEncoder {
	return e.Uint64(uint64(v) ^ (1 << 63))
}

// String appends a string field terminated by 0x00 0x01. Embedded zero bytes
// are escaped as 0x00 0xFF so ordering is preserved for arbitrary content.
func (e *KeyEncoder) String(s string) *KeyEncoder {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			e.buf = append(e.buf, 0, 0xFF)
		} else {
			e.buf = append(e.buf, s[i])
		}
	}
	e.buf = append(e.buf, 0, 1)
	return e
}

// Bytes returns the encoded key. The returned slice aliases the encoder's
// buffer; call Clone if the encoder will be reused.
func (e *KeyEncoder) Bytes() []byte { return e.buf }

// Clone returns a copy of the encoded key that survives Reset.
func (e *KeyEncoder) Clone() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// KeyDecoder reads fields back out of a composite key in encoding order.
type KeyDecoder struct {
	buf []byte
	err error
}

// DecodeKey returns a decoder positioned at the start of key.
func DecodeKey(key []byte) *KeyDecoder { return &KeyDecoder{buf: key} }

func (d *KeyDecoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("codec: key truncated: need %d bytes, have %d", n, len(d.buf))
		return false
	}
	return true
}

// Uint8 decodes a fixed-width uint8 field.
func (d *KeyDecoder) Uint8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

// Uint16 decodes a fixed-width uint16 field.
func (d *KeyDecoder) Uint16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

// Uint32 decodes a fixed-width uint32 field.
func (d *KeyDecoder) Uint32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

// Uint64 decodes a fixed-width uint64 field.
func (d *KeyDecoder) Uint64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Int64 decodes a sign-flipped int64 field.
func (d *KeyDecoder) Int64() int64 { return int64(d.Uint64() ^ (1 << 63)) }

// String decodes an escaped, terminated string field.
func (d *KeyDecoder) String() string {
	if d.err != nil {
		return ""
	}
	var out []byte
	for i := 0; i < len(d.buf); i++ {
		c := d.buf[i]
		if c != 0 {
			out = append(out, c)
			continue
		}
		if i+1 >= len(d.buf) {
			break
		}
		switch d.buf[i+1] {
		case 1: // terminator
			d.buf = d.buf[i+2:]
			return string(out)
		case 0xFF: // escaped zero
			out = append(out, 0)
			i++
		default:
			d.err = fmt.Errorf("codec: bad string escape 0x%02x", d.buf[i+1])
			return ""
		}
	}
	d.err = fmt.Errorf("codec: unterminated string field")
	return ""
}

// Rest returns the undecoded remainder of the key (empty after an error).
// Useful for schemas whose final field is the raw key tail.
func (d *KeyDecoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf
}

// Err reports the first decoding error, if any.
func (d *KeyDecoder) Err() error { return d.err }

// TupleEncoder builds a record payload as a sequence of varint-framed fields.
type TupleEncoder struct {
	buf []byte
}

// NewTuple returns a TupleEncoder with capacity for about n bytes.
func NewTuple(n int) *TupleEncoder { return &TupleEncoder{buf: make([]byte, 0, n)} }

// Reset discards encoded fields, retaining the buffer.
func (e *TupleEncoder) Reset() *TupleEncoder {
	e.buf = e.buf[:0]
	return e
}

// Uint64 appends an unsigned integer field.
func (e *TupleEncoder) Uint64(v uint64) *TupleEncoder {
	e.buf = binary.AppendUvarint(e.buf, v)
	return e
}

// Int64 appends a signed integer field.
func (e *TupleEncoder) Int64(v int64) *TupleEncoder {
	e.buf = binary.AppendVarint(e.buf, v)
	return e
}

// Float appends a float64 field with full precision.
func (e *TupleEncoder) Float(v float64) *TupleEncoder {
	// Store cents-style fixed point is up to callers; here we keep raw bits.
	return e.Uint64(floatBits(v))
}

// String appends a length-prefixed string field.
func (e *TupleEncoder) String(s string) *TupleEncoder {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Bytes returns the encoded tuple, aliasing the internal buffer.
func (e *TupleEncoder) Bytes() []byte { return e.buf }

// Clone returns a copy of the encoded tuple that survives Reset.
func (e *TupleEncoder) Clone() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// TupleDecoder reads fields back out of a tuple in encoding order.
type TupleDecoder struct {
	buf []byte
	err error
}

// DecodeTuple returns a decoder positioned at the start of data.
func DecodeTuple(data []byte) *TupleDecoder { return &TupleDecoder{buf: data} }

// Uint64 decodes an unsigned integer field.
func (d *TupleDecoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("codec: bad uvarint in tuple")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int64 decodes a signed integer field.
func (d *TupleDecoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("codec: bad varint in tuple")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Float decodes a float64 field.
func (d *TupleDecoder) Float() float64 { return floatFromBits(d.Uint64()) }

// String decodes a length-prefixed string field. The string aliases the
// tuple's bytes rather than copying them, so the tuple must not change while
// the string is in use: decode a buffer the caller will overwrite only after
// cloning it (strings.Clone on the result, or a copy of the tuple). The
// payloads an engine.Txn returns and the frames proto.ReadFrameD returns are
// never overwritten.
func (d *TupleDecoder) String() string {
	n := d.Uint64()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.err = fmt.Errorf("codec: string field truncated: need %d bytes, have %d", n, len(d.buf))
		return ""
	}
	s := unsafe.String(unsafe.SliceData(d.buf), int(n))
	d.buf = d.buf[n:]
	return s
}

// Rest returns the undecoded remainder of the tuple (empty after an error).
func (d *TupleDecoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf
}

// Err reports the first decoding error, if any.
func (d *TupleDecoder) Err() error { return d.err }
