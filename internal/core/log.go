package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Log record kinds inside commit blocks. Transactions accumulate these in a
// private buffer during forward processing (§3.1) and copy them into the
// centralized log in one reserved block at pre-commit.
const (
	recCreateTable uint8 = iota + 1
	recInsert
	recUpdate
	_ // 4: retired; never reuse
	recDeleteKey
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

// logRecord is a decoded record from a commit block.
type logRecord struct {
	kind  uint8
	table uint32
	oid   uint64
	key   []byte // insert, deleteKey, createTable (name), createIndex (name)
	val   []byte // insert, update
	index uint32 // createIndex: the new index id
	sec   []secRef
}

// secRef is one secondary binding inside an insert record.
type secRef struct {
	index uint32
	key   []byte
}

// decodeRecords parses every record in a commit block payload.
func decodeRecords(p []byte, fn func(logRecord) error) error {
	for len(p) > 0 {
		kind := p[0]
		p = p[1:]
		switch kind {
		case recCreateTable:
			if len(p) < 6 {
				return fmt.Errorf("core: truncated create-table record")
			}
			id := binary.LittleEndian.Uint32(p)
			nlen := int(binary.LittleEndian.Uint16(p[4:]))
			p = p[6:]
			if len(p) < nlen {
				return fmt.Errorf("core: truncated table name")
			}
			if err := fn(logRecord{kind: kind, table: id, key: p[:nlen]}); err != nil {
				return err
			}
			p = p[nlen:]
		case recInsert, recInsertSec:
			if len(p) < 16 {
				return fmt.Errorf("core: truncated insert record")
			}
			table := binary.LittleEndian.Uint32(p)
			oid := binary.LittleEndian.Uint64(p[4:])
			klen := int(binary.LittleEndian.Uint32(p[12:]))
			p = p[16:]
			if len(p) < klen+4 {
				return fmt.Errorf("core: truncated insert key")
			}
			key := p[:klen]
			vlen := int(binary.LittleEndian.Uint32(p[klen:]))
			p = p[klen+4:]
			if len(p) < vlen {
				return fmt.Errorf("core: truncated insert value")
			}
			rec := logRecord{kind: kind, table: table, oid: oid, key: key, val: p[:vlen]}
			p = p[vlen:]
			if kind == recInsertSec {
				if len(p) < 1 {
					return fmt.Errorf("core: truncated secondary count")
				}
				n := int(p[0])
				p = p[1:]
				for i := 0; i < n; i++ {
					if len(p) < 8 {
						return fmt.Errorf("core: truncated secondary entry")
					}
					idx := binary.LittleEndian.Uint32(p)
					sklen := int(binary.LittleEndian.Uint32(p[4:]))
					p = p[8:]
					if len(p) < sklen {
						return fmt.Errorf("core: truncated secondary key")
					}
					rec.sec = append(rec.sec, secRef{index: idx, key: p[:sklen]})
					p = p[sklen:]
				}
			}
			if err := fn(rec); err != nil {
				return err
			}
		case recUpdate:
			if len(p) < 16 {
				return fmt.Errorf("core: truncated update record")
			}
			table := binary.LittleEndian.Uint32(p)
			oid := binary.LittleEndian.Uint64(p[4:])
			vlen := int(binary.LittleEndian.Uint32(p[12:]))
			p = p[16:]
			if len(p) < vlen {
				return fmt.Errorf("core: truncated update value")
			}
			if err := fn(logRecord{kind: kind, table: table, oid: oid, val: p[:vlen]}); err != nil {
				return err
			}
			p = p[vlen:]
		case recDeleteKey:
			if len(p) < 16 {
				return fmt.Errorf("core: truncated delete record")
			}
			table := binary.LittleEndian.Uint32(p)
			oid := binary.LittleEndian.Uint64(p[4:])
			klen := int(binary.LittleEndian.Uint32(p[12:]))
			p = p[16:]
			if len(p) < klen {
				return fmt.Errorf("core: truncated delete key")
			}
			if err := fn(logRecord{kind: kind, table: table, oid: oid, key: p[:klen]}); err != nil {
				return err
			}
			p = p[klen:]
		case recCreateIndex:
			if len(p) < 10 {
				return fmt.Errorf("core: truncated create-index record")
			}
			id := binary.LittleEndian.Uint32(p)
			tableID := binary.LittleEndian.Uint32(p[4:])
			nlen := int(binary.LittleEndian.Uint16(p[8:]))
			p = p[10:]
			if len(p) < nlen {
				return fmt.Errorf("core: truncated index name")
			}
			if err := fn(logRecord{kind: kind, index: id, table: tableID, key: p[:nlen]}); err != nil {
				return err
			}
			p = p[nlen:]
		default:
			return fmt.Errorf("core: unknown log record kind %d", kind)
		}
	}
	return nil
}

// DumpRecords writes one text line per record in a commit or overflow block
// payload, each line starting with indent, and a line per secondary binding
// under its insert. It stops at the first malformed record and returns why.
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
		}
		return nil
	})
}
