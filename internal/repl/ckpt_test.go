package repl_test

import (
	"bytes"
	"net"
	"strconv"
	"sync"
	"testing"

	"ermia/internal/engine"
	"ermia/internal/repl"
	"ermia/internal/wal"
)

// bulkVal is a deterministic 1KiB value for key i — enough weight for a
// short workload to span several 64KiB log segments, so checkpointing
// actually frees sealed segments below the cut.
func bulkVal(i int) []byte {
	v := make([]byte, 1024)
	n := copy(v, "v"+strconv.Itoa(i)+"|")
	for j := n; j < len(v); j++ {
		v[j] = byte('a' + (i+j)%26)
	}
	return v
}

// fillBulk commits n bulk keys prefix0..prefix(n-1), several per transaction.
func fillBulk(t *testing.T, db engine.DB, tbl engine.Table, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; {
		tx := db.Begin(0)
		for j := 0; j < 2 && i < n; j, i = j+1, i+1 {
			if err := tx.Insert(tbl, []byte(prefix+strconv.Itoa(i)), bulkVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// auditBulk reads prefix0..prefix(n-1) back and verifies the bulk values.
func auditBulk(t *testing.T, db engine.DB, tbl engine.Table, prefix string, n int) {
	t.Helper()
	tx := db.BeginReadOnly(0)
	defer tx.Abort()
	for i := 0; i < n; i++ {
		v, err := tx.Get(tbl, []byte(prefix+strconv.Itoa(i)))
		if err != nil {
			t.Fatalf("key %s%d: %v", prefix, i, err)
		}
		if !bytes.Equal(v, bulkVal(i)) {
			t.Fatalf("key %s%d: bulk value mismatch (%d bytes)", prefix, i, len(v))
		}
	}
}

// TestSnapshotSeededBootstrap proves the point of checkpoint-seeded
// bootstrap: a replica started after the primary checkpoints loads the
// image and subscribes from the checkpoint's segment, reaching the
// primary's watermark while mirroring strictly fewer log bytes than a
// replica that mirrored the log from its start.
func TestSnapshotSeededBootstrap(t *testing.T) {
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	fillBulk(t, db, tbl, "a", 200)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	// Comparator: started before any checkpoint exists, this replica falls
	// back to mirroring from the log's start (the ErrNoCheckpoint path).
	scratch := startReplica(t, addr)
	waitWatermark(t, scratch, db.DurableOffset())
	if s := scratch.Stats(); s.Seeds != 0 {
		t.Fatalf("pre-checkpoint replica seeded anyway: %+v", s)
	}

	// Checkpoint, truncate, and keep writing: the log's prefix is gone.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("truncation freed no segments; the workload must span several")
	}
	fill(t, db, tbl, "b", 40)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	target := db.DurableOffset()
	waitWatermark(t, scratch, target)

	// The seeded replica: bootstraps from the checkpoint image.
	seeded := startReplica(t, addr)
	waitWatermark(t, seeded, target)

	ss, rs := scratch.Stats(), seeded.Stats()
	if rs.Seeds < 1 || rs.SeedBytes == 0 {
		t.Fatalf("fresh replica did not seed from the checkpoint: %+v", rs)
	}
	if rs.Bytes >= ss.Bytes {
		t.Fatalf("seeded replica mirrored %d log bytes, from-scratch mirror %d; seeding must read strictly less",
			rs.Bytes, ss.Bytes)
	}
	t.Logf("seeded: %d log bytes + %d image bytes; scratch: %d log bytes", rs.Bytes, rs.SeedBytes, ss.Bytes)

	// Both serve the complete data set.
	for _, r := range []*repl.Replica{scratch, seeded} {
		rtbl := r.DB().OpenTable("kv")
		if rtbl == nil {
			t.Fatal("replica lost the table catalog")
		}
		auditBulk(t, r.DB(), rtbl, "a", 200)
		audit(t, r.DB(), rtbl, "b", 40)
		if err := r.Err(); err != nil {
			t.Fatalf("replica recorded a fatal error: %v", err)
		}
	}
}

// TestSeededReplicaRestart crashes a seeded replica before promotion and
// restarts it over the same directory: recovery must adopt the persisted
// checkpoint image (not start empty), and the restarted replica must not
// re-download it.
func TestSeededReplicaRestart(t *testing.T) {
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	fillBulk(t, db, tbl, "a", 200)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TruncateLog(); err != nil {
		t.Fatal(err)
	}
	fill(t, db, tbl, "b", 40)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := repl.Config{PrimaryAddr: addr, Retry: fastRedial}
	cfg.Core.WAL.Storage = st
	r, err := repl.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.DurableOffset())
	firstSeeds := r.Stats().Seeds
	if firstSeeds < 1 {
		t.Fatalf("fresh replica did not seed: %+v", r.Stats())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: the persisted blob plus mirrored
	// suffix must restore the full state without a fresh image download.
	st2, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Core.WAL.Storage = st2
	r2, err := repl.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	waitWatermark(t, r2, db.DurableOffset())
	rtbl := r2.DB().OpenTable("kv")
	if rtbl == nil {
		t.Fatal("restarted replica lost the table catalog")
	}
	auditBulk(t, r2.DB(), rtbl, "a", 200)
	audit(t, r2.DB(), rtbl, "b", 40)
	if s := r2.Stats(); s.SeedBytes != 0 {
		t.Fatalf("restarted replica re-downloaded the checkpoint image: %+v", s)
	}
}

// pausableProxy relays TCP between a replica and its primary and can
// sever + refuse connections on demand, simulating a network partition the
// replica outlives.
type pausableProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	paused bool
	conns  []net.Conn
}

func newPausableProxy(t *testing.T, target string) *pausableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &pausableProxy{ln: ln, target: target}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.paused {
				p.mu.Unlock()
				c.Close()
				continue
			}
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			go p.relay(c)
		}
	}()
	return p
}

func (p *pausableProxy) relay(c net.Conn) {
	s, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	p.conns = append(p.conns, s)
	p.mu.Unlock()
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		done <- struct{}{}
	}
	go cp(s, c)
	go cp(c, s)
	<-done
	c.Close()
	s.Close()
}

// Pause severs every live connection and refuses new ones until Resume.
func (p *pausableProxy) Pause() {
	p.mu.Lock()
	p.paused = true
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

func (p *pausableProxy) Resume() {
	p.mu.Lock()
	p.paused = false
	p.mu.Unlock()
}

// TestTruncationReseedMidStream is the end-to-end truncation race: a live
// replica is partitioned away, the primary checkpoints and truncates the
// segments the replica still needed, and the partition heals. The replica's
// resubscription must receive the typed tail-truncated signal over the wire
// and re-seed from the checkpoint — not hang, not die with a CRC or fatal
// stream error — and still converge on the complete data set.
func TestTruncationReseedMidStream(t *testing.T) {
	db, _, addr := startPrimary(t)
	tbl := db.CreateTable("kv")
	fill(t, db, tbl, "a", 60)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}

	proxy := newPausableProxy(t, addr)
	r := startReplica(t, proxy.ln.Addr().String())
	waitWatermark(t, r, db.DurableOffset())
	if s := r.Stats(); s.Seeds != 0 {
		t.Fatalf("replica seeded before any checkpoint existed: %+v", s)
	}

	// Partition, then move the primary far ahead and truncate the suffix
	// the replica would need to resume from.
	proxy.Pause()
	fillBulk(t, db, tbl, "b", 300)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	removed, err := db.TruncateLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) == 0 {
		t.Fatal("truncation freed no segments; the partition workload must span several")
	}
	proxy.Resume()

	waitWatermark(t, r, db.DurableOffset())
	if err := r.Err(); err != nil {
		t.Fatalf("replica treated truncation as fatal: %v", err)
	}
	if s := r.Stats(); s.Seeds < 1 {
		t.Fatalf("replica never re-seeded after truncation: %+v", s)
	}
	rtbl := r.DB().OpenTable("kv")
	if rtbl == nil {
		t.Fatal("replica lost the table catalog")
	}
	audit(t, r.DB(), rtbl, "a", 60)
	auditBulk(t, r.DB(), rtbl, "b", 300)

	// The healed replica keeps streaming normally.
	fill(t, db, tbl, "c", 20)
	if err := db.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, r, db.DurableOffset())
	audit(t, r.DB(), rtbl, "c", 20)
}
