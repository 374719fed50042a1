package silo

import (
	"encoding/binary"
	"fmt"

	"ermia/internal/wal"
)

// Commit block payload. Each committed writer transaction claims one
// wal.BlockCommit block between validation and install:
//
//	tid    uint64  commit TID (epoch ‖ sequence)
//	count  uint32
//	per write: [nameLen u8][table name][klen u32][key][vlen u32][val]
//	           (vlen == absentValue marks a delete)
//
// The log is ERMIA-framed and SiloR-shaped in content: full record images,
// replayed by applying, for every key, the write with the highest commit
// TID. That is correct even though commit TIDs are only per-record ordered:
// Silo's TID assignment makes successive writers of the same record use
// strictly increasing TIDs (each saw its predecessor's TID word).
const absentValue = 0xFFFFFFFF

// encodeEntry appends one committed transaction's commit block payload.
func encodeEntry(buf []byte, tid uint64, writes []writeEntry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, tid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(writes)))
	for i := range writes {
		w := &writes[i]
		buf = append(buf, byte(len(w.tbl.name)))
		buf = append(buf, w.tbl.name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.key)))
		buf = append(buf, w.key...)
		if w.absent {
			buf = binary.LittleEndian.AppendUint32(buf, absentValue)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.data)))
		buf = append(buf, w.data...)
	}
	return buf
}

// decodeEntry calls fn for every write of a commit block payload. It
// reports false if p is not a well-formed payload; val aliases p.
func decodeEntry(p []byte, fn func(tid uint64, table, key string, val []byte, absent bool)) bool {
	if len(p) < 12 {
		return false
	}
	tid := binary.LittleEndian.Uint64(p)
	count := binary.LittleEndian.Uint32(p[8:])
	p = p[12:]
	for ; count > 0; count-- {
		if len(p) == 0 {
			return false
		}
		n := 1 + int(p[0])
		if len(p) < n+4 {
			return false
		}
		table := string(p[1:n])
		klen := int(binary.LittleEndian.Uint32(p[n:]))
		p = p[n+4:]
		if len(p) < klen+4 {
			return false
		}
		key := string(p[:klen])
		vlen := binary.LittleEndian.Uint32(p[klen:])
		p = p[klen+4:]
		if vlen == absentValue {
			fn(tid, table, key, nil, true)
			continue
		}
		if len(p) < int(vlen) {
			return false
		}
		fn(tid, table, key, p[:vlen], false)
		p = p[vlen:]
	}
	return len(p) == 0
}

// Recover rebuilds a Silo database from its log: wal.Recover scans the
// segments (stopping at the torn tail), the highest-TID write of every key
// is installed directly, and the DB resumes the log where the scan ended.
// Recovery writes nothing, so a crash during it retries from the same bytes.
func Recover(cfg Config) (*DB, error) {
	if cfg.Storage == nil {
		return nil, fmt.Errorf("silo: Recover requires explicit storage")
	}
	type slot struct {
		tid    uint64
		val    []byte
		absent bool
	}
	state := map[string]map[string]slot{}
	var maxEpoch uint64
	res, err := wal.Recover(cfg.Storage, func(b wal.Block) error {
		ok := b.Type == wal.BlockCommit && decodeEntry(b.Payload, func(tid uint64, table, key string, val []byte, absent bool) {
			maxEpoch = max(maxEpoch, tidEpoch(tid))
			rows := state[table]
			if rows == nil {
				rows = map[string]slot{}
				state[table] = rows
			}
			if prev, seen := rows[key]; !seen || tid > prev.tid {
				rows[key] = slot{tid: tid, val: cloneBytes(val), absent: absent}
			}
		})
		if !ok {
			return fmt.Errorf("silo: malformed log block at %v", b.LSN)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Resume the epoch past everything recovered, so new commit TIDs
	// exceed every recovered one.
	db, err := open(cfg, res, maxEpoch+2)
	if err != nil {
		return nil, err
	}
	for name, rows := range state {
		tbl := db.CreateTable(name).(*Table)
		for key, s := range rows {
			if s.absent {
				continue
			}
			rec := db.newRecord()
			rec.word.Store(makeWord(s.tid, false))
			rec.data.Store(&s.val)
			tbl.idx.Insert([]byte(key), rec)
		}
	}
	return db, nil
}
