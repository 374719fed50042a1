package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"ermia/internal/wal"
)

// FuzzDecodeRecord throws arbitrary bytes at the commit-block record parser.
// Crash recovery hands decodeRecords whatever the WAL framing layer yields,
// and the faultfs sweep shows torn writes can truncate a payload anywhere, so
// the parser must reject malformed input with an error — never panic, never
// read out of bounds, and never loop forever. It parses checkpoint bodies
// too, which a seeding replica takes straight off the wire. The seed corpus
// covers every record kind, built with the real encoders so mutation starts
// from valid frames.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeCreateTable(1, "orders"))
	f.Add(encodeCreateIndex(2, 1, "orders-by-customer"))
	f.Add(appendInsert(nil, 1, 42, []byte("key-1"), []byte("value-1")))
	f.Add(appendUpdate(nil, 1, 42, []byte("value-2")))
	f.Add(appendDeleteKey(nil, 1, 42, []byte("key-1")))
	f.Add(appendInsertSec(nil, 1, 43, []byte("key-2"), []byte("value-3"),
		[]loggedSecondary{{index: 2, key: []byte("sk-2")}}))
	f.Add(appendVersion(nil, 1, 42, 0x1000, false, []byte("key-1"), []byte("value-1")))
	f.Add(appendVersion(nil, 1, 43, 0x2000, true, []byte("key-2"), nil))
	f.Add(appendBind(nil, 2, 42, []byte("sk-1")))
	// A whole commit-block payload: several records back to back, as the
	// transaction's private log buffer lays them out.
	multi := encodeCreateTable(3, "stock")
	multi = appendInsert(multi, 3, 7, []byte("s1"), []byte("qty=10"))
	multi = appendUpdate(multi, 3, 7, []byte("qty=9"))
	multi = appendDeleteKey(multi, 3, 8, []byte("s2"))
	f.Add(multi)
	// A checkpoint body: catalog, record images, bindings.
	body := encodeCreateTable(1, "orders")
	body = append(body, encodeCreateIndex(2, 1, "orders-by-customer")...)
	body = appendVersion(body, 1, 42, 0x1000, false, []byte("key-1"), []byte("value-1"))
	body = appendBind(body, 2, 42, []byte("sk-1"))
	f.Add(body)
	// Known-hostile shapes: truncated header, huge declared lengths, an
	// unknown kind, the retired kind 4 (a keyless delete of table 1, OID 42),
	// a secondary count with no entries behind it, a version image declaring
	// a 4 GiB key.
	f.Add([]byte{recInsert, 0xFF, 0xFF})
	f.Add([]byte{recUpdate, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{0x7F})
	f.Add([]byte{4, 1, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{recInsertSec, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF})
	f.Add([]byte{recVersion, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		seen := 0
		err := decodeRecords(data, func(r logRecord) error {
			seen++
			// Every record the parser surfaces must have in-bounds slices;
			// touching them here turns a bad slice header into a failure.
			_ = len(r.key) + len(r.val)
			for _, s := range r.sec {
				_ = len(s.key)
			}
			switch r.kind {
			case recCreateTable, recInsert, recUpdate, recDeleteKey, recCreateIndex, recInsertSec, recVersion, recBind:
			default:
				t.Fatalf("parser surfaced unknown kind %d", r.kind)
			}
			return nil
		})
		if err == nil && len(data) > 0 && seen == 0 {
			t.Fatal("non-empty payload decoded to zero records with no error")
		}
	})
}

// FuzzRecordRoundTrip encodes an insert-with-secondaries, an update, a
// delete, a checkpoint's version image and binding from fuzzer-chosen fields
// and requires decodeRecords to return exactly what went in. This pins the
// record format: recovery rebuilds both the primary and the secondary index
// from these records, so a lossy encoding would silently corrupt recovered
// databases.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint64(42), []byte("k"), []byte("v"), []byte("sk"), uint64(7), false)
	f.Add(uint32(0), uint64(0), []byte{}, []byte{}, []byte{}, uint64(0), true)
	f.Add(uint32(1<<31), uint64(1<<60), []byte{0, 0xFF}, make([]byte, 300), []byte("x"), uint64(1<<62), true)
	f.Fuzz(func(t *testing.T, table uint32, oid uint64, key, val, skey []byte, clsn uint64, tomb bool) {
		buf := appendInsertSec(nil, table, oid, key, val,
			[]loggedSecondary{{index: 9, key: skey}})
		buf = appendUpdate(buf, table, oid, val)
		buf = appendDeleteKey(buf, table, oid, key)
		buf = appendVersion(buf, table, oid, clsn, tomb, key, val)
		buf = appendBind(buf, 9, oid, skey)

		var got []logRecord
		if err := decodeRecords(buf, func(r logRecord) error {
			// The parser's slices alias buf; copy so later records can't
			// share storage surprises with earlier ones.
			r.key = append([]byte(nil), r.key...)
			r.val = append([]byte(nil), r.val...)
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("decode of freshly encoded records failed: %v", err)
		}
		if len(got) != 5 {
			t.Fatalf("decoded %d records, want 5", len(got))
		}
		ins := got[0]
		if ins.kind != recInsertSec || ins.table != table || ins.oid != oid ||
			string(ins.key) != string(key) || string(ins.val) != string(val) {
			t.Fatalf("insert did not round-trip: %+v", ins)
		}
		if len(ins.sec) != 1 || ins.sec[0].index != 9 || string(ins.sec[0].key) != string(skey) {
			t.Fatalf("secondary binding did not round-trip: %+v", ins.sec)
		}
		if up := got[1]; up.kind != recUpdate || up.table != table || up.oid != oid || string(up.val) != string(val) {
			t.Fatalf("update did not round-trip: %+v", up)
		}
		if del := got[2]; del.kind != recDeleteKey || del.table != table || del.oid != oid || string(del.key) != string(key) {
			t.Fatalf("keyed delete did not round-trip: %+v", del)
		}
		wantVal := val
		if tomb {
			wantVal = nil // a tombstone's value is its key, not written
		}
		if v := got[3]; v.kind != recVersion || v.table != table || v.oid != oid || v.clsn != clsn ||
			v.tomb != tomb || string(v.key) != string(key) || string(v.val) != string(wantVal) {
			t.Fatalf("version image did not round-trip: %+v", v)
		}
		if b := got[4]; b.kind != recBind || b.index != 9 || b.oid != oid || string(b.key) != string(skey) {
			t.Fatalf("binding did not round-trip: %+v", b)
		}
	})
}

// fuzzSeedSegment builds a valid one-segment image — commits, a
// checkpoint-begin record, more commits — and returns the segment's name and bytes. The
// checkpoint blob is deliberately not carried into the fuzz storage, so the
// checkpoint-fallback path runs on every input too.
func fuzzSeedSegment(f *testing.F) (string, []byte) {
	st := wal.NewMemStorage()
	db, err := Open(sweepConfig(st))
	if err != nil {
		f.Fatal(err)
	}
	tbl := db.CreateTable("t")
	ins := func(k, v string) {
		txn := db.Begin(0)
		if err := txn.Insert(tbl, []byte(k), []byte(v)); err != nil {
			f.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	ins("a", "1")
	ins("b", "2")
	if err := db.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	ins("c", "3")
	txn := db.Begin(0)
	if err := txn.Delete(tbl, []byte("a")); err != nil {
		f.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		f.Fatal(err)
	}
	db.Close()

	img := st.Crash()
	names, err := img.List()
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range names {
		if len(n) < 4 || n[:4] != "log-" {
			continue
		}
		fl, err := img.Open(n)
		if err != nil {
			f.Fatal(err)
		}
		size, err := fl.Size()
		if err != nil {
			f.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := fl.ReadAt(data, 0); err != nil && err != io.EOF {
			f.Fatal(err)
		}
		fl.Close()
		return n, data
	}
	f.Fatal("no segment file in seed image")
	return "", nil
}

// fuzzCkptWorkload commits a small history with one mid-stream checkpoint
// and returns the durable image, the published blob's name and bytes, and
// the expected final state. Shared by FuzzCheckpointBlob and
// TestCheckpointBodyRefusals.
func fuzzCkptWorkload(f testing.TB) (*wal.MemStorage, string, []byte, map[string]string) {
	st := wal.NewMemStorage()
	db, err := Open(sweepConfig(st))
	if err != nil {
		f.Fatal(err)
	}
	tbl := db.CreateTable("t")
	si := db.CreateSecondaryIndex(tbl, "t-by-sk")
	ins := func(k, v string) {
		txn := db.BeginTxn(0)
		err := txn.InsertWithSecondary(tbl, []byte(k), []byte(v),
			[]SecondaryEntry{{Index: si, Key: skeyFor(k)}})
		if err != nil {
			f.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	ins("a", "1")
	ins("b", "2")
	if err := db.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	ins("c", "3")
	txn := db.Begin(0)
	if err := txn.Delete(tbl, []byte("a")); err != nil {
		f.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		f.Fatal(err)
	}
	if err := db.WaitDurable(); err != nil {
		f.Fatal(err)
	}
	db.Close()

	img := st.Crash()
	names, err := img.List()
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range names {
		if _, _, ok := parseCheckpointName(n); !ok {
			continue
		}
		fl, err := img.Open(n)
		if err != nil {
			f.Fatal(err)
		}
		size, err := fl.Size()
		if err != nil {
			f.Fatal(err)
		}
		blob := make([]byte, size)
		if _, err := fl.ReadAt(blob, 0); err != nil && err != io.EOF {
			f.Fatal(err)
		}
		fl.Close()
		return img, n, blob, map[string]string{"b": "2", "c": "3"}
	}
	f.Fatal("no published checkpoint blob in seed image")
	return nil, "", nil, nil
}

// blobChecksumOK reports whether an image would pass the FNV trailer check —
// the same verification readCheckpointBlob and SeedCheckpoint apply.
func blobChecksumOK(data []byte) bool {
	if len(data) < 4 {
		return false
	}
	return wal.Checksum(data[:len(data)-4]) == binary.LittleEndian.Uint32(data[len(data)-4:])
}

// FuzzCheckpointBlob throws mutated checkpoint images at both blob
// consumers. Recovery: a blob failing its checksum, lacking its header or
// with its floor above its begin must be skipped — with the log intact,
// recovery then MUST succeed with the exact full-replay state, never adopt
// corrupt bytes. Another checksum-valid mutant may recover or fail with a
// clean decode error, never panic. Replica seeding (SeedCheckpoint): an
// image recovery must skip is rejected; the pristine image must load the
// exact checkpoint state.
func FuzzCheckpointBlob(f *testing.F) {
	img, blobName, blob, want := fuzzCkptWorkload(f)

	f.Add(blob)
	f.Add(blob[:len(blob)/2])            // truncated: checksum fails
	f.Add(blob[:checkpointHeaderSize])   // header only, no trailer
	flip := append([]byte(nil), blob...) // body bit-flip: checksum fails
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	tail := append([]byte(nil), blob...) // trailer bit-flip: checksum fails
	tail[len(tail)-1] ^= 0x01
	f.Add(tail)
	// Checksum-fixed mutants: verification passes, the decoder must cope.
	fixed := append([]byte(nil), blob...)
	fixed[checkpointHeaderSize+2] ^= 0x80 // damage the payload catalog
	binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], wal.Checksum(fixed[:len(fixed)-4]))
	f.Add(fixed)
	// Minimal well-checksummed body: one version record declaring an absurd
	// key length. The decoder must hit its bounds check, not allocate 4 GiB.
	huge := appendCheckpointHeader(nil, CheckpointInfo{Gen: 1, Begin: 64, Floor: 64})
	huge = appendVersion(huge, 1, 1, 1, false, nil, nil)
	binary.LittleEndian.PutUint32(huge[len(huge)-8:], ^uint32(0)) // the key length
	huge = binary.LittleEndian.AppendUint32(huge, wal.Checksum(huge))
	f.Add(huge)
	// A well-checksummed payload with no header: not a blob at all.
	headerless := append([]byte(nil), blob[checkpointHeaderSize:len(blob)-4]...)
	headerless = binary.LittleEndian.AppendUint32(headerless, wal.Checksum(headerless))
	f.Add(headerless)
	// A well-checksummed blob whose floor lies above its begin: the header
	// contradicts itself.
	high := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(high[24:], binary.LittleEndian.Uint64(high[16:])+wal.Grain)
	binary.LittleEndian.PutUint32(high[len(high)-4:], wal.Checksum(high[:len(high)-4]))
	f.Add(high)

	f.Fuzz(func(t *testing.T, data []byte) {
		badHeader := !bytes.HasPrefix(data, checkpointMagic[:]) ||
			len(data) >= checkpointHeaderSize && binary.LittleEndian.Uint64(data[24:]) > binary.LittleEndian.Uint64(data[16:])
		// Recovery path: pristine log, mutated blob under the live name.
		st := img.Crash()
		if err := st.Remove(blobName); err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			fl, err := st.Create(blobName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			fl.Sync()
			fl.Close()
		}
		db, err := Recover(sweepConfig(st))
		if !blobChecksumOK(data) || badHeader {
			// The trailer and header checks must route recovery around the
			// bad blob and full-log replay must reconstruct the exact
			// committed state.
			if err != nil {
				t.Fatalf("recovery failed instead of ignoring an invalid blob: %v", err)
			}
			if ci, ok := db.LastCheckpoint(); ok {
				t.Fatalf("recovery adopted an invalid blob: %+v", ci)
			}
			checkFuzzState(t, db, want)
		}
		if err == nil {
			db.Close()
		}

		// Seeding path: the image arrives over the wire into a fresh replica
		// (whose read snapshot is the watermark the seed publishes).
		db2, ap, _, err := OpenReplica(sweepConfig(wal.NewMemStorage()))
		if err != nil {
			t.Fatal(err)
		}
		_, serr := db2.SeedCheckpoint(data)
		if serr == nil && (!blobChecksumOK(data) || badHeader) {
			t.Fatal("SeedCheckpoint accepted an image failing its checksum or without a valid header")
		}
		if serr == nil && bytes.Equal(data, blob) {
			checkFuzzState(t, db2, map[string]string{"a": "1", "b": "2"})
		}
		ap.Close()
		db2.Close()
	})
}

// checkFuzzState asserts the database's table t holds exactly want, with
// every live key reachable through its secondary binding.
func checkFuzzState(t *testing.T, db *DB, want map[string]string) {
	t.Helper()
	tbl := db.OpenTable("t")
	si := db.OpenSecondaryIndex("t-by-sk")
	if tbl == nil || si == nil {
		t.Fatal("catalog not recovered")
	}
	txn := db.BeginTxn(0)
	defer txn.Abort()
	got := map[string]string{}
	if err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered state %v, want %v", got, want)
		}
		if sv, err := txn.GetBySecondary(si, skeyFor(k)); err != nil || string(sv) != v {
			t.Fatalf("secondary lookup %s: %q, %v (want %q)", k, sv, err, v)
		}
	}
}

// FuzzRecover feeds mutated storage images to full database recovery: torn
// and corrupted logs and checkpoint blobs must yield a working database or a
// clean error, never a panic or runaway allocation. An input is a packed
// directory (packFile). One seed is a lone segment; another is a truncated
// log with both retained blobs, so mutation reaches the checkpoint fallback.
func FuzzRecover(f *testing.F) {
	name, seed := fuzzSeedSegment(f)
	f.Add(packFile(nil, name, seed))
	f.Add(packFile(nil, name, seed[:len(seed)/2]))
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x04
	f.Add(packFile(nil, name, flip))
	huge := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint32(huge[4:], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(huge[24:], 0xFFFFFFF0)
	f.Add(packFile(nil, name, huge))
	f.Add(fuzzTruncatedDir(f))

	f.Fuzz(func(t *testing.T, dir []byte) {
		st := wal.NewMemStorage()
		for len(dir) > 0 {
			n := int(dir[0])
			if len(dir) < 1+n+4 {
				break
			}
			name := string(dir[1 : 1+n])
			size := min(int(binary.LittleEndian.Uint32(dir[1+n:])), len(dir)-1-n-4)
			data := dir[1+n+4 : 1+n+4+size]
			dir = dir[1+n+4+size:]
			fl, err := st.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			fl.Sync()
			fl.Close()
		}
		db, err := Recover(sweepConfig(st.Crash()))
		if err == nil {
			db.Close()
		}
	})
}

// packFile appends one file to a FuzzRecover input: a name length byte, the
// name, a little-endian uint32 data length, then the data. Unpacking clips a
// length to the bytes left.
func packFile(buf []byte, name string, data []byte) []byte {
	buf = append(buf, byte(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	return append(buf, data...)
}

// fuzzTruncatedDir packs every file of a small log that checkpointed twice
// and truncated: the segments left and the two retained blobs.
func fuzzTruncatedDir(f *testing.F) []byte {
	st := wal.NewMemStorage()
	db, err := Open(Config{WAL: wal.Config{SegmentSize: 2 << 10, BufferSize: 2 << 10, Storage: st, SyncFlush: true}})
	if err != nil {
		f.Fatal(err)
	}
	tbl := db.CreateTable("t")
	val := string(bytes.Repeat([]byte("v"), 100))
	for i := 0; i < 36; i++ {
		put(f, db, tbl, fmt.Sprintf("k%02d", i), val)
		if i == 11 || i == 23 {
			if err := db.Checkpoint(); err != nil {
				f.Fatal(err)
			}
		}
	}
	removed, err := db.TruncateLog()
	if err != nil || len(removed) == 0 {
		f.Fatalf("truncation removed %v (%v)", removed, err)
	}
	if err := db.WaitDurable(); err != nil {
		f.Fatal(err)
	}
	db.Close()
	img := st.Crash()
	names, err := img.List()
	if err != nil {
		f.Fatal(err)
	}
	var dir []byte
	blobs := 0
	for _, n := range names {
		if _, _, ok := parseCheckpointName(n); ok {
			blobs++
		}
		fl, err := img.Open(n)
		if err != nil {
			f.Fatal(err)
		}
		size, err := fl.Size()
		if err != nil {
			f.Fatal(err)
		}
		data := make([]byte, size)
		if _, err := fl.ReadAt(data, 0); err != nil && err != io.EOF {
			f.Fatal(err)
		}
		fl.Close()
		dir = packFile(dir, n, data)
	}
	if blobs != 2 {
		f.Fatalf("%d blobs in the truncated log", blobs)
	}
	rdb, err := Recover(sweepConfig(img.Crash()))
	if err != nil {
		f.Fatal(err)
	}
	defer rdb.Close()
	if n := rdb.OpenTable("t").(*Table).idx.Len(); n != 36 {
		f.Fatalf("the truncated log recovers %d of 36 rows", n)
	}
	return dir
}
