package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"ermia/internal/mvcc"
	"ermia/internal/wal"
)

// TestCheckpointBodyRefusals appends one record a checkpoint body must not
// hold to a real checkpoint body and re-checksums the image, so each image
// passes verifyCheckpointImage and only the loader stands between it and the
// engine. Both consumers must refuse every one: SeedCheckpoint, which takes
// the image off the wire, with an error, no adopted checkpoint and no blob
// in storage; Recover with an error.
func TestCheckpointBodyRefusals(t *testing.T) {
	img, blobName, blob, _ := fuzzCkptWorkload(t)
	ci, body, err := verifyCheckpointImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	var tableID, indexID uint32
	if err := decodeRecords(body, func(r logRecord) error {
		switch r.kind {
		case recCreateTable:
			tableID = r.table
		case recCreateIndex:
			indexID = r.index
		}
		return nil
	}); err != nil || tableID == 0 || indexID == 0 {
		t.Fatalf("catalog of the real body: table %d, index %d, %v", tableID, indexID, err)
	}
	image := func(extra []byte) []byte {
		buf := appendCheckpointHeader(nil, ci)
		buf = append(append(buf, body...), extra...)
		return binary.LittleEndian.AppendUint32(buf, wal.Checksum(buf))
	}
	k, v := []byte("z"), []byte("26")
	cases := []struct {
		name  string
		extra []byte
	}{
		{"control", nil},
		{"commit record", appendInsert(nil, tableID, 99, k, v)},
		{"stamped at begin", appendVersion(nil, tableID, 99, ci.Begin, false, k, v)},
		{"TID stamp", appendVersion(nil, tableID, 99, mvcc.TIDStamp(7), false, k, v)},
		{"unknown index", appendBind(nil, indexID+100, 99, k)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := image(tc.extra)
			refuse := tc.extra != nil

			db, ap, _, err := OpenReplica(sweepConfig(wal.NewMemStorage()))
			if err != nil {
				t.Fatal(err)
			}
			_, serr := db.SeedCheckpoint(data)
			_, adopted := db.LastCheckpoint()
			names, _ := db.cfg.WAL.Storage.List()
			stored := false
			for _, n := range names {
				stored = stored || strings.HasPrefix(n, "ckpt-")
			}
			ap.Close()
			db.Close()
			if refuse && (serr == nil || adopted || stored) {
				t.Errorf("SeedCheckpoint: err %v, adopted %t, stored %t; want refused", serr, adopted, stored)
			}
			if !refuse && serr != nil {
				t.Errorf("SeedCheckpoint refused the real body: %v", serr)
			}

			st := img.Crash()
			fl, err := st.Create(blobName)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fl.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			fl.Sync()
			fl.Close()
			rdb, rerr := Recover(sweepConfig(st))
			if rerr == nil {
				rdb.Close()
			}
			if refuse && rerr == nil {
				t.Error("Recover adopted the image")
			}
			if !refuse && rerr != nil {
				t.Errorf("Recover refused the real body: %v", rerr)
			}
		})
	}
}

// TestCommitBlockRefusesCheckpointRecords: version and bind records belong
// to a checkpoint body, so replaying one out of a commit block is an error.
func TestCommitBlockRefusesCheckpointRecords(t *testing.T) {
	db, err := Open(sweepConfig(wal.NewMemStorage()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.CreateTable("t").(*Table)
	si := db.CreateSecondaryIndex(tbl, "t-by-sk")
	for _, payload := range [][]byte{
		appendVersion(nil, tbl.id, 1, 5, false, []byte("k"), []byte("v")),
		appendBind(nil, si.id, 1, []byte("sk")),
	} {
		if err := db.applyRecords(payload, 10); err == nil {
			t.Errorf("applyRecords accepted checkpoint record kind %d", payload[0])
		}
	}
}
