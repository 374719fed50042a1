package shard_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/wal"
)

// prepareRecords counts the prepare records shard i still holds, parked or
// not, by reading the participant's system table directly.
func (cl *cluster) prepareRecords(i int) int {
	cl.t.Helper()
	c, err := client.Dial(client.Options{Addr: cl.m.Shards[i].Addr})
	if err != nil {
		cl.t.Fatal(err)
	}
	defer c.Close()
	tbl := c.OpenTable(server.ShardPrepTable)
	if tbl == nil {
		return 0
	}
	n := 0
	ro := c.BeginReadOnly(0)
	defer ro.Abort()
	if err := ro.Scan(tbl, nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		cl.t.Fatal(err)
	}
	return n
}

// transfer writes one key on each of two shards in one transaction.
func transfer(r *shard.Router, tbl engine.Table, a, b []byte) error {
	txn := r.Begin(0)
	if err := txn.Insert(tbl, a, []byte("va")); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Insert(tbl, b, []byte("vb")); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

// TestRecoveryMatrix kills the coordinator at each point of a cross-shard
// commit where its memory matters — prepared everywhere and named in no log;
// decided, with nobody told; told and acknowledged on apply, with nothing
// confirmed — and, with or without also crashing both participants back to
// their last sync, starts a new router over the same decision log. Every
// cell must come out atomic, with the outcome the log dictates, no prepare
// record left anywhere, and a log that answers for nothing.
func TestRecoveryMatrix(t *testing.T) {
	crash := errors.New("simulated coordinator crash")
	points := []struct {
		name      string
		arm       func(cl *cluster, o *shard.Options)
		committed bool
	}{
		{"AfterPrepare", func(_ *cluster, o *shard.Options) {
			o.CrashAfterPrepare = func([]byte) error { return crash }
		}, false},
		{"AfterDecision", func(_ *cluster, o *shard.Options) {
			o.CrashAfterDecision = func([]byte) error { return crash }
		}, true},
		// The commit returns nil to its caller; the gates close just before
		// the decides go out, so what the participants apply is unsynced.
		{"AfterApplyAck", func(cl *cluster, o *shard.Options) {
			o.CrashAfterDecision = func([]byte) error {
				for _, g := range cl.gates {
					g.Hold()
				}
				return nil
			}
		}, true},
	}
	for _, pt := range points {
		for _, restart := range []bool{false, true} {
			pt, restart := pt, restart
			t.Run(fmt.Sprintf("%s/restart=%v", pt.name, restart), func(t *testing.T) {
				cl := startCluster(t, 2, nil)
				dlogPath := filepath.Join(t.TempDir(), "decisions.log")
				opts := shard.Options{PoolSize: 2, DecisionLog: dlogPath}
				pt.arm(cl, &opts)
				r1, err := shard.NewRouter(cl.m, opts)
				if err != nil {
					t.Fatal(err)
				}
				tbl := r1.CreateTable("t")
				a, b := shardKey(t, cl.m, "t", 0), shardKey(t, cl.m, "t", 1)
				err = transfer(r1, tbl, a, b)
				if pt.name == "AfterApplyAck" {
					if err != nil {
						t.Fatalf("commit: %v", err)
					}
				} else if !errors.Is(err, engine.ErrTxnInDoubt) {
					t.Fatalf("commit through crash hook = %v, want ErrTxnInDoubt", err)
				}
				r1.Crash()
				for i := range cl.srvs {
					if restart {
						cl.crashShard(i)
					} else {
						cl.gates[i].Release()
					}
				}

				r2, err := shard.NewRouter(cl.m, shard.Options{PoolSize: 2, DecisionLog: dlogPath})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r2.ResolveInDoubt(); err != nil {
					t.Fatalf("ResolveInDoubt: %v", err)
				}
				if n, err := r2.ResolveInDoubt(); n != 0 || err != nil {
					t.Fatalf("second ResolveInDoubt = %d, %v; want 0, nil", n, err)
				}
				rt := r2.OpenTable("t")
				ro := r2.BeginReadOnly(0)
				_, errA := ro.Get(rt, a)
				_, errB := ro.Get(rt, b)
				ro.Abort()
				if pt.committed && (errA != nil || errB != nil) {
					t.Errorf("commit lost: a %v, b %v", errA, errB)
				}
				if !pt.committed && !(errors.Is(errA, engine.ErrNotFound) && errors.Is(errB, engine.ErrNotFound)) {
					t.Errorf("presumed abort left data: a %v, b %v", errA, errB)
				}
				for i := range cl.srvs {
					if n := cl.prepareRecords(i); n != 0 {
						t.Errorf("shard %d still holds %d prepare records", i, n)
					}
				}
				if n := r2.Pending(); n != 0 {
					t.Errorf("decision log still answers for %d transactions", n)
				}
				r2.Close()

				// The log on disk agrees: a third incarnation starts clean,
				// and nothing but I, C and D was ever written.
				r3, err := shard.NewRouter(cl.m, shard.Options{DecisionLog: dlogPath})
				if err != nil {
					t.Fatal(err)
				}
				defer r3.Close()
				if n := r3.Pending(); n != 0 {
					t.Errorf("replayed log answers for %d transactions", n)
				}
				kinds, err := shard.DecisionLogKinds(dlogPath)
				if err != nil {
					t.Fatal(err)
				}
				commits := strings.Count(kinds, "C")
				if strings.Trim(kinds, "ICD") != "" {
					t.Errorf("unexpected decision-log records %q", kinds)
				}
				if (commits == 1) != pt.committed || commits > 1 {
					t.Errorf("log holds %d C records, committed=%v", commits, pt.committed)
				}
			})
		}
	}
}

// TestResolveInDoubtSparesRunningCommit calls ResolveInDoubt — and the
// orphan search a restarted router runs — while a commit sits between its
// prepares and its decision: the nemesis does exactly that when it "recovers
// the coordinator" under load. Presumed abort is for transactions nobody is
// committing any more; this one must commit on both shards.
func TestResolveInDoubtSparesRunningCommit(t *testing.T) {
	cl := startCluster(t, 2, nil)
	prepared, resume := make(chan struct{}), make(chan struct{})
	r := cl.router(t, shard.Options{
		PoolSize:    2,
		DecisionLog: filepath.Join(t.TempDir(), "decisions.log"),
		CrashAfterPrepare: func([]byte) error {
			close(prepared)
			<-resume
			return nil
		},
	})
	tbl := r.CreateTable("t")
	a, b := shardKey(t, cl.m, "t", 0), shardKey(t, cl.m, "t", 1)
	done := make(chan error, 1)
	go func() { done <- transfer(r, tbl, a, b) }()

	<-prepared
	n, err := r.ResolveInDoubt()
	for i := range cl.srvs {
		if e := r.AdoptPrepared(i); e != nil && err == nil {
			err = e
		}
	}
	if m, e := r.ResolveInDoubt(); e == nil {
		n += m
	} else if err == nil {
		err = e
	}
	close(resume)
	if n != 0 || err != nil {
		t.Errorf("ResolveInDoubt beside a running commit = %d, %v; want 0, nil", n, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("commit: %v", err)
	}
	ro := r.BeginReadOnly(1)
	defer ro.Abort()
	for _, k := range [][]byte{a, b} {
		if _, err := ro.Get(tbl, k); err != nil {
			t.Errorf("Get(%q) after the commit: %v", k, err)
		}
	}
}

// TestCommitSurvivesParticipantCrashBeforeSync: the caller was told
// "committed" on the strength of two on-apply acks, and both participants
// then lose everything since their last sync. The next transaction through
// the router — on connections that had to be re-dialed — must already see
// the commit: the router re-delivers what it has not seen confirmed before
// it lets anything read.
func TestCommitSurvivesParticipantCrashBeforeSync(t *testing.T) {
	cl := startCluster(t, 2, nil)
	r := cl.router(t, shard.Options{
		PoolSize:    2,
		DecisionLog: filepath.Join(t.TempDir(), "decisions.log"),
		CrashAfterDecision: func([]byte) error {
			for _, g := range cl.gates {
				g.Hold()
			}
			return nil
		},
	})
	tbl := r.CreateTable("t")
	a, b := shardKey(t, cl.m, "t", 0), shardKey(t, cl.m, "t", 1)
	if err := transfer(r, tbl, a, b); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for i := range cl.srvs {
		cl.crashShard(i)
	}
	// The first attempt may still find a dead connection; a retry loop
	// would absorb that. What no attempt may do is succeed and miss a key.
	for attempt := 0; ; attempt++ {
		ro := r.BeginReadOnly(0)
		_, errA := ro.Get(tbl, a)
		_, errB := ro.Get(tbl, b)
		ro.Abort()
		if errA == nil && errB == nil {
			break
		}
		for _, err := range []error{errA, errB} {
			if errors.Is(err, engine.ErrNotFound) {
				t.Fatalf("a transaction after the crash read the state before the commit (a %v, b %v)", errA, errB)
			}
		}
		if attempt > 20 {
			t.Fatalf("reads never succeeded: a %v, b %v", errA, errB)
		}
	}
	if n, err := r.ResolveInDoubt(); n != 0 || err != nil {
		t.Errorf("ResolveInDoubt = %d, %v; want 0, nil: the commit was never in doubt", n, err)
	}
	for i := range cl.srvs {
		if n := cl.prepareRecords(i); n != 0 {
			t.Errorf("shard %d still holds %d prepare records", i, n)
		}
	}
	if n := r.Pending(); n != 0 {
		t.Errorf("decision log still answers for %d transactions", n)
	}
}

// TestUndeliveredDecisionResolvesInBackground loses a participant between
// the commit point and its decide: the caller gets ErrTxnInDoubt, and the
// router's own resolver — nobody calls ResolveInDoubt — finishes the commit
// once the participant is back.
func TestUndeliveredDecisionResolvesInBackground(t *testing.T) {
	cl := startCluster(t, 2, nil)
	r := cl.router(t, shard.Options{
		PoolSize:    2,
		DecisionLog: filepath.Join(t.TempDir(), "decisions.log"),
		CrashAfterDecision: func([]byte) error {
			cl.srvs[1].Close()
			return nil
		},
	})
	tbl := r.CreateTable("t")
	a, b := shardKey(t, cl.m, "t", 0), shardKey(t, cl.m, "t", 1)
	if err := transfer(r, tbl, a, b); !errors.Is(err, engine.ErrTxnInDoubt) {
		t.Fatalf("commit with a participant down at decide time = %v, want ErrTxnInDoubt", err)
	}
	cl.serveShard(1)
	for deadline := time.Now().Add(10 * time.Second); r.Pending() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("decision log still answers for %d transactions", r.Pending())
		}
	}
	ro := r.BeginReadOnly(1)
	defer ro.Abort()
	for _, k := range [][]byte{a, b} {
		if _, err := ro.Get(tbl, k); err != nil {
			t.Errorf("Get(%q) after background resolution: %v", k, err)
		}
	}
}

// TestNewRouterRefusesForeignDecisionLog starts a router over a decision log
// it cannot read. Starting empty instead would forget every C the log holds
// and orphan every prepared gid its id covers, so NewRouter must fail and
// leave the bytes as they were: a text log from before the log took the
// wal's framing, and a block whose checksum holds but whose C record claims
// more shards than its payload carries.
func TestNewRouterRefusesForeignDecisionLog(t *testing.T) {
	cl := startCluster(t, 1, nil)
	t.Run("text", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "decisions.log")
		text := []byte("I 18df45477031d6e9 1\nC 18df45477031d6e90000010000000001 0,1\n")
		if err := os.WriteFile(path, text, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := shard.NewRouter(cl.m, shard.Options{DecisionLog: path}); err == nil {
			r.Close()
			t.Fatal("NewRouter over a text decision log succeeded")
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, text) {
			t.Errorf("text log now %q (%v), want it untouched", got, err)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "decisions.log")
		st, err := wal.NewDirStorage(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wal.Open(wal.Config{Storage: st, SyncFlush: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := binary.BigEndian.AppendUint32(append([]byte{'C'}, make([]byte, 16)...), 1000)
		res, err := m.Reserve(len(rec), wal.BlockCommit)
		if err != nil {
			t.Fatal(err)
		}
		res.Append(rec)
		res.Commit()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if r, err := shard.NewRouter(cl.m, shard.Options{DecisionLog: dir}); err == nil {
			r.Close()
			t.Fatal("NewRouter over a malformed decision block succeeded")
		} else if !strings.Contains(err.Error(), "malformed decision-log block") {
			t.Errorf("NewRouter = %v, want the malformed block refused", err)
		}
		if after := dirBytes(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Error("refused decision log was modified")
		}
	})
}

// TestNewRouterRefusesDecisionLogGap: a decision-log segment missing from
// the middle makes NewRouter fail naming both neighbours, rather than replay
// the records past the hole, and leaves the log as it found it.
func TestNewRouterRefusesDecisionLogGap(t *testing.T) {
	cl := startCluster(t, 1, nil)
	dir := filepath.Join(t.TempDir(), "decisions.log")
	st, err := wal.NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wal.Open(wal.Config{Storage: st, SegmentSize: 4096, BufferSize: 2048, SyncFlush: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		rec := binary.BigEndian.AppendUint64(append([]byte{'D'}, make([]byte, 8)...), uint64(i))
		res, err := m.Reserve(len(rec), wal.BlockCommit)
		if err != nil {
			t.Fatal(err)
		}
		res.Append(rec)
		res.Commit()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(st)
	if err != nil || len(segs) < 4 {
		t.Fatalf("%d segments (%v)", len(segs), err)
	}
	if err := st.Remove(segs[1].Name); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	if r, err := shard.NewRouter(cl.m, shard.Options{DecisionLog: dir}); err == nil {
		r.Close()
		t.Fatalf("NewRouter replayed past missing segment %s", segs[1].Name)
	} else if !strings.Contains(err.Error(), segs[0].Name) || !strings.Contains(err.Error(), segs[2].Name) {
		t.Errorf("NewRouter = %v; want both neighbours named", err)
	}
	if after := dirBytes(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Error("refused decision log was modified")
	}
}

// dirBytes reads every file in dir.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
