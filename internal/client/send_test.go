package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// pipeWrites counts the client's writes to its end of a net.Pipe. A pipe
// Write blocks until the peer has read all of it, so a test holds the
// connection's writer mid-write by not reading.
type pipeWrites struct {
	net.Conn
	writes atomic.Int32
}

func (p *pipeWrites) Write(b []byte) (int, error) {
	p.writes.Add(1)
	return p.Conn.Write(b)
}

// pipeConn returns a conn over one end of a pipe, its write counter, and the
// peer's end, which nobody reads yet.
func pipeConn(t *testing.T) (*conn, *pipeWrites, net.Conn) {
	t.Helper()
	near, far := net.Pipe()
	pw := &pipeWrites{Conn: near}
	cn, err := dialConn("", Options{
		Dial: func(string, time.Duration) (net.Conn, error) { return pw, nil },
	}, &poolCounters{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.close(); far.Close() })
	return cn, pw, far
}

// sendN starts n goroutines that each send one request on cn and then await
// its response; their await errors arrive on the returned channel. sent
// receives once per send that returned without error.
func sendN(cn *conn, n int) (sent chan struct{}, results chan error) {
	sent = make(chan struct{}, n)
	results = make(chan error, n)
	payload := proto.AppendBytes(proto.AppendU64(nil, proto.ClientTxnBit|1), []byte("key"))
	for i := 0; i < n; i++ {
		go func() {
			w, _, err := cn.send(proto.MsgGet, payload, nil)
			if err != nil {
				results <- err
				return
			}
			sent <- struct{}{}
			_, _, _, err = cn.await(w)
			results <- err
		}()
	}
	return sent, results
}

// waitQueued waits until n requests are registered on cn and n-1 of the
// sends have returned, the last being the writer held in a write the peer is
// not reading. It gives up on the sends after a second, so that where each
// caller waits its turn to write the test fails on the write count instead
// of hanging.
func waitQueued(t *testing.T, cn *conn, n int, sent chan struct{}) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		cn.pmu.Lock()
		got := len(cn.pending)
		cn.pmu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests registered", got, n)
		}
	}
	timeout := time.After(time.Second)
	for i := 0; i < n-1; i++ {
		select {
		case <-sent:
		case <-timeout:
			t.Logf("only %d of %d sends returned while the writer was held", i, n-1)
			return
		}
	}
}

// TestPipelinedSendsShareOneWrite: callers that send while another holds the
// connection's write queue their frames and return, and the writer puts the
// queued frames on the socket together.
func TestPipelinedSendsShareOneWrite(t *testing.T) {
	cn, pw, far := pipeConn(t)
	const callers = 4
	sent, results := sendN(cn, callers)
	waitQueued(t, cn, callers, sent)

	go okPeer(far)
	for i := 0; i < callers; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d responses arrived", i, callers)
		}
	}
	if got := pw.writes.Load(); got > 2 {
		t.Fatalf("%d frames took %d socket writes, want at most 2", callers, got)
	}
}

// TestFailedWriteReleasesQueuedCallers: when the write in progress fails,
// every caller is released with ErrConnLost, including those whose frames
// were still queued behind it, and the connection refuses further sends.
func TestFailedWriteReleasesQueuedCallers(t *testing.T) {
	cn, _, far := pipeConn(t)
	const callers = 4
	sent, results := sendN(cn, callers)
	waitQueued(t, cn, callers, sent)

	far.Close()
	for i := 0; i < callers; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, engine.ErrConnLost) {
				t.Fatalf("request %d: %v, want ErrConnLost", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers released", i, callers)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := cn.send(proto.MsgPing, nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrConnLost) {
			t.Fatalf("send after the failed write: %v, want ErrConnLost", err)
		}
	case <-time.After(time.Second):
		t.Fatal("send after the failed write blocked")
	}
}

// TestSendsKeepTheirOrder: with several callers on the connection and two
// requests in flight each, every caller's frames reach the socket once and
// in the order it sent them.
func TestSendsKeepTheirOrder(t *testing.T) {
	cn, _, far := pipeConn(t)
	const callers, per = 4, 200
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		var next [callers]uint32
		for n := 0; n < callers*per; n++ {
			typ, id, payload, err := proto.ReadFrame(far)
			if err != nil {
				t.Errorf("peer read: %v", err)
				return
			}
			d := proto.NewDec(payload)
			g, i := d.U32(), d.U32()
			if d.Err() != nil || g >= callers || i != next[g] {
				t.Errorf("frame %d: caller %d request %d, want request %d", n, g, i, next[g%callers])
				return
			}
			next[g]++
			resp := proto.AppendFrame(nil, typ|proto.RespFlag, id, proto.AppendBytes(proto.AppendStatus(nil, proto.StatusOK), nil))
			if _, err := far.Write(resp); err != nil {
				t.Errorf("peer write: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			var inFlight []waiter
			for i := uint32(0); i < per; i++ {
				w, _, err := cn.send(proto.MsgGet, proto.AppendU32(proto.AppendU32(nil, g), i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if inFlight = append(inFlight, w); len(inFlight) < 2 && i < per-1 {
					continue
				}
				for _, w := range inFlight {
					if _, _, _, err := cn.await(w); err != nil {
						t.Error(err)
						return
					}
				}
				inFlight = inFlight[:0]
			}
		}(uint32(g))
	}
	wg.Wait()
	<-peerDone
}

// heldInTime skips the rest of a test that needed its next step to start
// within holdDelay of a post, when the machine stalled it past that.
func heldInTime(t *testing.T, posted time.Time) {
	t.Helper()
	if d := time.Since(posted); d >= holdDelay {
		t.Skipf("stalled %v after the post, past the hold delay", d)
	}
}

// TestHoldRidesNextSend: a held frame stays in the buffer until the next
// send, which writes it in its own write; the timer then finds nothing held
// and writes nothing. Both frames count as requests.
func TestHoldRidesNextSend(t *testing.T) {
	cn, pw, far := pipeConn(t)
	go okPeer(far)
	payload := proto.AppendU64(nil, proto.ClientTxnBit|1)
	posted := time.Now()
	cn.post(proto.MsgCommit, payload)
	w, _, err := cn.send(proto.MsgPing, nil, nil)
	heldInTime(t, posted)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cn.await(w); err != nil {
		t.Fatal(err)
	}
	if got := pw.writes.Load(); got != 1 {
		t.Fatalf("held frame and send took %d writes, want 1", got)
	}
	time.Sleep(3 * holdDelay)
	if got := pw.writes.Load(); got != 1 {
		t.Fatalf("%d writes after the hold delay, want still 1", got)
	}
	if got := cn.counters.requests.Load(); got != 2 {
		t.Fatalf("%d requests counted, want 2", got)
	}
}

// TestHoldTimerWritesAlone: with no send behind it, a held frame is written
// by the connection's timer, and reaches the peer whole.
func TestHoldTimerWritesAlone(t *testing.T) {
	cn, pw, far := pipeConn(t)
	payload := proto.AppendU64(nil, proto.ClientTxnBit|7)
	got := make(chan uint64, 1)
	go func() {
		typ, _, p, err := proto.ReadFrame(far)
		if err != nil || typ != proto.MsgAbort {
			t.Errorf("peer read type %#x, %v; want MsgAbort", typ, err)
			close(got)
			return
		}
		got <- proto.NewDec(p).U64()
	}()
	cn.post(proto.MsgAbort, payload)
	select {
	case id := <-got:
		if id != proto.ClientTxnBit|7 {
			t.Fatalf("held frame names %#x", id)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("held frame not written within 50ms")
	}
	if n := pw.writes.Load(); n != 1 {
		t.Fatalf("%d writes, want 1", n)
	}
}

// TestHoldStoppedByFail: a failed connection drops its held frames; the
// timer writes nothing after the failure, and a later post queues nothing.
func TestHoldStoppedByFail(t *testing.T) {
	cn, pw, far := pipeConn(t)
	go okPeer(far)
	payload := proto.AppendU64(nil, proto.ClientTxnBit|1)
	posted := time.Now()
	cn.post(proto.MsgCommit, payload)
	cn.fail(errClientClosed)
	heldInTime(t, posted)
	cn.post(proto.MsgCommit, payload)
	time.Sleep(3 * holdDelay)
	if got := pw.writes.Load(); got != 0 {
		t.Fatalf("%d writes after the failure, want 0", got)
	}
	if got := cn.counters.requests.Load(); got != 1 {
		t.Fatalf("%d requests counted, want 1 (the post after the failure is refused)", got)
	}
}
