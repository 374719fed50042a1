package main

import (
	"bytes"
	"time"

	"ermia/internal/index"
	"ermia/internal/mvcc"
	"ermia/internal/proto"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// The probe pass times layer kernels directly, single-threaded, with fixed
// operation counts, on structures loaded with the workload's own keys. Its
// numbers are per-call costs with nothing else running; they bound what a
// layer can save, they are not shares of a transaction.

const probeOps = 200000

type probeResult struct {
	indexGetNs, indexInsertNs, indexScanNsPerKey float64
	mvccHeadNs, mvccInstallNs                    float64
	walReserveNs, protoFrameNs                   float64
}

var probeSink int

func perOp(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// runProbes times the kernels on structures it builds itself.
//
//ermia:guard-entry the indirection array is private to the probe and nothing prunes it, so no epoch needs to be held
func runProbes(keys [][]byte, seed uint64) (probeResult, error) {
	var p probeResult
	rng := xrand.New2(seed, 0x9707E)

	// index: load every key but the last tenth, then time inserting those.
	tree := index.New[mvcc.OID]()
	arr := mvcc.NewOIDArray()
	hold := len(keys) - len(keys)/10
	oids := make([]mvcc.OID, 0, len(keys))
	for _, k := range keys[:hold] {
		oid := arr.Alloc()
		tree.Insert(k, oid)
		oids = append(oids, oid)
	}
	t0 := time.Now()
	for _, k := range keys[hold:] {
		oid := arr.Alloc()
		tree.Insert(k, oid)
		oids = append(oids, oid)
	}
	p.indexInsertNs = perOp(time.Since(t0), len(keys)-hold)

	t0 = time.Now()
	for i := 0; i < probeOps; i++ {
		if _, ok := tree.Get(keys[rng.Intn(len(keys))]); ok {
			probeSink++
		}
	}
	p.indexGetNs = perOp(time.Since(t0), probeOps)

	const scanLen = 20
	scanned := 0
	t0 = time.Now()
	for i := 0; i < probeOps/scanLen; i++ {
		n := 0
		tree.Scan(keys[rng.Intn(len(keys))], nil, nil, func([]byte, mvcc.OID) bool {
			n++
			return n < scanLen
		})
		scanned += n
	}
	p.indexScanNsPerKey = perOp(time.Since(t0), scanned)

	// mvcc: install a version at every oid, then read heads at random.
	payload := make([]byte, kvValueLen)
	t0 = time.Now()
	for i, oid := range oids {
		arr.Install(oid, mvcc.NewVersion(payload, mvcc.Stamp(i+1), false))
	}
	p.mvccInstallNs = perOp(time.Since(t0), len(oids))
	t0 = time.Now()
	for i := 0; i < probeOps; i++ {
		if arr.Head(oids[rng.Intn(len(oids))]) != nil {
			probeSink++
		}
	}
	p.mvccHeadNs = perOp(time.Since(t0), probeOps)

	// wal: one reservation per commit block on heap storage, so the number is
	// the fetch-and-add, the ring copy and the header, without a device.
	log, err := wal.Open(wal.Config{Storage: wal.NewMemStorage()}, nil)
	if err != nil {
		return p, err
	}
	t0 = time.Now()
	for i := 0; i < probeOps; i++ {
		r, err := log.Reserve(len(payload), wal.BlockCommit)
		if err != nil {
			log.Close()
			return p, err
		}
		r.Append(payload)
		r.Commit()
	}
	p.walReserveNs = perOp(time.Since(t0), probeOps)
	if err := log.Close(); err != nil {
		return p, err
	}

	// proto: encode one 100-byte frame and decode it again.
	var frame []byte
	var rd bytes.Reader
	t0 = time.Now()
	for i := 0; i < probeOps; i++ {
		frame = proto.AppendFrame(frame[:0], proto.MsgGet, uint64(i), payload)
		rd.Reset(frame)
		if _, _, body, err := proto.ReadFrame(&rd); err != nil {
			return p, err
		} else {
			probeSink += len(body)
		}
	}
	p.protoFrameNs = perOp(time.Since(t0), probeOps)
	return p, nil
}
