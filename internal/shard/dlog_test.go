package shard

import (
	"encoding/binary"
	"math"
	"testing"

	"ermia/internal/faultfs"
	"ermia/internal/wal"
)

const dlogSweepSeed = 0xd1096

// never is a trace position no crash point reaches.
const never = math.MaxInt

// dlogGid is what the live run knows about one gid, as trace positions (the
// trace's length when the event happened).
type dlogGid struct {
	decideCalled int // its C may be on the medium from here on
	decided      int // decide returned nil: its C is durable from here on
	confirmed    int // its D may be on the medium from here on
	dDurable     int // a later forced write has covered its D
}

// runDlogSweepWorkload drives three incarnations of the decision log over
// rec. Each retires what the previous one left decided, then begins six
// transactions: two are never decided, two are decided and confirmed, and
// two are decided and left for the next incarnation. It returns the id of
// the first incarnation, the trace position at which each incarnation's I
// record was durable, and every gid's history.
func runDlogSweepWorkload(t *testing.T, rec *faultfs.Recorder) (id uint64, opened []int, gids map[string]*dlogGid) {
	gids = map[string]*dlogGid{}
	var uncovered []*dlogGid // confirmed, D not yet forced out
	forced := func() {
		for _, g := range uncovered {
			g.dDurable = len(rec.Ops())
		}
		uncovered = nil
	}
	retire := func(l *decisionLog, e *dlogEntry) {
		g := gids[string(e.gid)]
		g.confirmed = len(rec.Ops())
		for _, s := range e.shards {
			l.confirm(e, s)
		}
		uncovered = append(uncovered, g)
	}
	for inc := 0; inc < 3; inc++ {
		l, err := openDecisionLog(rec)
		if err != nil {
			t.Fatal(err)
		}
		forced()
		opened = append(opened, len(rec.Ops()))
		if inc == 0 {
			id = l.id
		} else if l.id != id {
			t.Fatalf("incarnation %d reopened as coordinator %x, want %x", inc+1, l.id, id)
		}
		var left []*dlogEntry
		for _, e := range l.pending {
			left = append(left, e)
		}
		if inc > 0 && len(left) != 2 {
			t.Fatalf("incarnation %d replayed %d pending commits, want 2", inc+1, len(left))
		}
		for _, e := range left {
			retire(l, e)
		}
		for i := 0; i < 6; i++ {
			e := l.begin([]int{0, 1 + i%2})
			g := &dlogGid{decideCalled: never, decided: never, confirmed: never, dDurable: never}
			gids[string(e.gid)] = g
			if i%3 != 0 {
				g.decideCalled = len(rec.Ops())
				if err := l.decide(e); err != nil {
					t.Fatal(err)
				}
				g.decided = len(rec.Ops())
				forced()
			}
			l.release(e)
			if i%3 == 1 {
				retire(l, e)
			}
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		forced()
	}
	return id, opened, gids
}

// TestDecisionLogCrashSweep crashes the decision log at every operation
// boundary and torn-write point of a three-incarnation run and reopens it
// from the durable image. Presumed abort's invariant must hold at each: a
// commit whose decide returned is recovered as commit until its D is
// durable, nothing is recovered as commit that was never decided, the new
// incarnation numbers above every durable one, and the coordinator keeps
// its id once any I is durable.
func TestDecisionLogCrashSweep(t *testing.T) {
	rec := faultfs.NewRecorder(wal.NewMemStorage())
	id, opened, gids := runDlogSweepWorkload(t, rec)
	tr := rec.Ops()
	points := faultfs.Points(tr, dlogSweepSeed, 0)
	torn := 0
	for _, p := range points {
		if p.Torn {
			torn++
		}
		img, err := faultfs.CrashImage(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		l, err := openDecisionLog(img)
		if err != nil {
			t.Fatalf("%v: reopen: %v", p, err)
		}
		for inc, at := range opened {
			if n := l.firstSeq >> seqShift; p.Index >= at && n <= uint64(inc+1) {
				t.Errorf("%v: incarnation %d reopened as %d", p, inc+1, n)
			}
		}
		if p.Index >= opened[0] && l.id != id {
			t.Errorf("%v: coordinator %x reopened as %x", p, id, l.id)
		}
		for key, g := range gids {
			e := l.pending[key]
			switch {
			case e != nil && !e.commit:
				t.Errorf("%v: gid %x replayed without a decision", p, key)
			case e == nil && p.Index >= g.decided && p.Index < g.confirmed:
				t.Errorf("%v: decided gid %x lost its commit", p, key)
			case e != nil && p.Index >= g.dDurable:
				t.Errorf("%v: gid %x pending past its durable D", p, key)
			case e != nil && p.Index < g.decideCalled:
				t.Errorf("%v: gid %x recovered as commit before its decide", p, key)
			}
		}
		for key := range l.pending {
			if gids[key] == nil {
				t.Errorf("%v: recovered unknown gid %x", p, key)
			}
		}
		if err := l.close(); err != nil {
			t.Fatalf("%v: close: %v", p, err)
		}
	}
	t.Logf("seed %#x: swept %d crash points (%d torn) over a %d-op trace, %d gids, %d incarnations",
		uint64(dlogSweepSeed), len(points), torn, len(tr), len(gids), len(opened))
}

// dlogSegment returns the durable image of a decision log's one segment,
// with the segment's file name, after fill has written to the log.
func dlogSegment(tb testing.TB, fill func(*decisionLog)) (name string, data []byte) {
	st := wal.NewMemStorage()
	l, err := openDecisionLog(st)
	if err != nil {
		tb.Fatal(err)
	}
	fill(l)
	if err := l.close(); err != nil {
		tb.Fatal(err)
	}
	crashed := st.Crash()
	names, err := crashed.List()
	if err != nil || len(names) != 1 {
		tb.Fatalf("log left segments %v, %v; want one", names, err)
	}
	f, err := crashed.Open(names[0])
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		tb.Fatal(err)
	}
	data = make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		tb.Fatal(err)
	}
	return names[0], data
}

// FuzzDecisionLog feeds segment images to the decision log's replay: bit
// flips, truncations and checksum-valid blocks with malformed payloads must
// come back as a log or an error, never a panic.
func FuzzDecisionLog(f *testing.F) {
	name, seed := dlogSegment(f, func(l *decisionLog) {
		for i := 0; i < 3; i++ {
			e := l.begin([]int{0, 1})
			if err := l.decide(e); err != nil {
				f.Fatal(err)
			}
			l.release(e)
			if i != 1 {
				l.confirm(e, 0)
				l.confirm(e, 1)
			}
		}
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	flip := append([]byte(nil), seed...)
	flip[wal.BlockHeaderSize+1] ^= 0x20 // the I record's id
	f.Add(flip)
	_, overrun := dlogSegment(f, func(l *decisionLog) {
		rec := binary.BigEndian.AppendUint32(append([]byte{'C'}, l.gidOf(1)...), 1000)
		if err := l.append(rec, true); err != nil {
			f.Fatal(err)
		}
	})
	f.Add(overrun)

	f.Fuzz(func(t *testing.T, data []byte) {
		st := wal.NewMemStorage()
		fl, err := st.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		fl.Sync()
		if l, err := openDecisionLog(st); err == nil {
			l.close()
		}
	})
}
