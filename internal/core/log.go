package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Log record kinds. Transactions accumulate the commit-block kinds in a
// private buffer during forward processing (§3.1) and copy them into the
// centralized log in one reserved block at pre-commit. A checkpoint body is
// a run of records too: the catalog as create-table and create-index
// records, then one version record per record image at the cut and one bind
// record per secondary binding. Version and bind records appear only there.
const (
	recCreateTable uint8 = iota + 1
	recInsert
	recUpdate
	_ // 4: retired; never reuse
	recDeleteKey
	recVersion
	recBind
)

func encodeCreateTable(id uint32, name string) []byte {
	buf := make([]byte, 0, 7+len(name))
	buf = append(buf, recCreateTable)
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	return buf
}

// appendInsert encodes an insert record (key needed to rebuild the index).
func appendInsert(buf []byte, table uint32, oid uint64, key, val []byte) []byte {
	buf = append(buf, recInsert)
	buf = binary.LittleEndian.AppendUint32(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	return buf
}

// appendUpdate encodes an update record; the OID alone locates the record,
// which is the log-amplification win of indirection the paper describes.
func appendUpdate(buf []byte, table uint32, oid uint64, val []byte) []byte {
	buf = append(buf, recUpdate)
	buf = binary.LittleEndian.AppendUint32(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	return buf
}

// appendDeleteKey encodes a delete record. The OID locates the record; the
// key is what lets whoever replays the tombstone reclaim the index entry
// once no snapshot needs it (see DB.reclaim).
func appendDeleteKey(buf []byte, table uint32, oid uint64, key []byte) []byte {
	buf = append(buf, recDeleteKey)
	buf = binary.LittleEndian.AppendUint32(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	return buf
}

// appendVersion encodes a checkpoint's image of one record: its newest
// version visible at the cut, under that version's commit stamp. A
// tombstone writes an empty value, because its value is its key.
func appendVersion(buf []byte, table uint32, oid, clsn uint64, tombstone bool, key, val []byte) []byte {
	flags := uint8(0)
	if tombstone {
		flags, val = 1, nil
	}
	buf = append(buf, recVersion)
	buf = binary.LittleEndian.AppendUint32(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint64(buf, clsn)
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	return buf
}

// appendBind encodes a checkpoint's image of one secondary binding.
func appendBind(buf []byte, index uint32, oid uint64, skey []byte) []byte {
	buf = append(buf, recBind)
	buf = binary.LittleEndian.AppendUint32(buf, index)
	buf = binary.LittleEndian.AppendUint64(buf, oid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(skey)))
	buf = append(buf, skey...)
	return buf
}

// logRecord is one decoded record.
type logRecord struct {
	kind  uint8
	table uint32
	oid   uint64
	key   []byte // insert, deleteKey, version, createTable (name), createIndex (name), bind (secondary key)
	val   []byte // insert, update, version
	index uint32 // createIndex: the new index id; bind: the index
	clsn  uint64 // version: the commit stamp
	tomb  bool   // version: a tombstone
	sec   []secRef
}

// secRef is one secondary binding inside an insert record.
type secRef struct {
	index uint32
	key   []byte
}

// recReader reads record fields with one sticky bounds check: the first
// read past the end sets bad, and every read after it returns zero values.
// Its slices alias the input.
type recReader struct {
	p   []byte
	bad bool
}

func (d *recReader) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.p) {
		d.bad = true
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

// uintLE reads an n-byte little-endian integer.
func (d *recReader) uintLE(n int) uint64 {
	var v uint64
	for i, c := range d.take(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

func (d *recReader) u8() uint8   { return uint8(d.uintLE(1)) }
func (d *recReader) u32() uint32 { return uint32(d.uintLE(4)) }
func (d *recReader) u64() uint64 { return d.uintLE(8) }

// name reads a u16-length-prefixed string, bytes a u32-length-prefixed one.
func (d *recReader) name() []byte  { return d.take(int(d.uintLE(2))) }
func (d *recReader) bytes() []byte { return d.take(int(d.u32())) }

// decodeRecords parses every record in a commit block payload or a
// checkpoint body. It is the engine's one parser of record bytes.
func decodeRecords(p []byte, fn func(logRecord) error) error {
	d := recReader{p: p}
	for len(d.p) > 0 {
		r := logRecord{kind: d.u8()}
		switch r.kind {
		case recCreateTable:
			r.table, r.key = d.u32(), d.name()
		case recCreateIndex:
			r.index, r.table, r.key = d.u32(), d.u32(), d.name()
		case recInsert, recInsertSec:
			r.table, r.oid, r.key, r.val = d.u32(), d.u64(), d.bytes(), d.bytes()
			if r.kind == recInsertSec {
				for n := d.u8(); n > 0 && !d.bad; n-- {
					idx := d.u32()
					r.sec = append(r.sec, secRef{index: idx, key: d.bytes()})
				}
			}
		case recUpdate:
			r.table, r.oid, r.val = d.u32(), d.u64(), d.bytes()
		case recDeleteKey:
			r.table, r.oid, r.key = d.u32(), d.u64(), d.bytes()
		case recVersion:
			r.table, r.oid, r.clsn, r.tomb = d.u32(), d.u64(), d.u64(), d.u8() == 1
			r.key, r.val = d.bytes(), d.bytes()
		case recBind:
			r.index, r.oid, r.key = d.u32(), d.u64(), d.bytes()
		default:
			return fmt.Errorf("core: unknown log record kind %d", r.kind)
		}
		if d.bad {
			return fmt.Errorf("core: truncated record of kind %d", r.kind)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// DumpRecords writes one text line per record in a commit or overflow block
// payload or a checkpoint body, each line starting with indent, and a line
// per secondary binding under its insert. It stops at the first malformed
// record and returns why.
func DumpRecords(w io.Writer, indent string, payload []byte) error {
	return decodeRecords(payload, func(r logRecord) error {
		switch r.kind {
		case recCreateTable:
			fmt.Fprintf(w, "%screate-table id=%d name=%q\n", indent, r.table, r.key)
		case recCreateIndex:
			fmt.Fprintf(w, "%screate-index id=%d table=%d name=%q\n", indent, r.index, r.table, r.key)
		case recInsert, recInsertSec:
			fmt.Fprintf(w, "%sinsert table=%d oid=%d key=%x vlen=%d\n", indent, r.table, r.oid, r.key, len(r.val))
			for _, s := range r.sec {
				fmt.Fprintf(w, "%s  secondary idx=%d key=%x\n", indent, s.index, s.key)
			}
		case recUpdate:
			fmt.Fprintf(w, "%supdate table=%d oid=%d vlen=%d\n", indent, r.table, r.oid, len(r.val))
		case recDeleteKey:
			fmt.Fprintf(w, "%sdelete table=%d oid=%d key=%x\n", indent, r.table, r.oid, r.key)
		case recVersion:
			fmt.Fprintf(w, "%sversion table=%d oid=%d clsn=%#x tombstone=%t key=%x vlen=%d\n",
				indent, r.table, r.oid, r.clsn, r.tomb, r.key, len(r.val))
		case recBind:
			fmt.Fprintf(w, "%sbind idx=%d oid=%d key=%x\n", indent, r.index, r.oid, r.key)
		}
		return nil
	})
}

// DumpCheckpoint verifies a checkpoint image and writes its generation,
// begin offset and floor (the log it keeps alive starts there), then its
// body through DumpRecords.
func DumpCheckpoint(w io.Writer, indent string, image []byte) error {
	ci, body, err := verifyCheckpointImage(image)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%scheckpoint gen=%d begin=%#x floor=%#x\n", indent, ci.Gen, ci.Begin, ci.Floor)
	return DumpRecords(w, indent, body)
}
