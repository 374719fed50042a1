package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/engine"
	"ermia/internal/proto"
)

// conn is one pipelined wire connection. Any number of goroutines may issue
// calls concurrently: they append their frames to one buffer that a single
// writer at a time puts on the socket (see send), and a single reader
// goroutine dispatches responses to their waiters by request id — which is
// what lets the server acknowledge commits out of order from the group
// committer while the rest of the pipeline keeps flowing.
type conn struct {
	nc net.Conn

	// reqTimeout is Options.RequestTimeout: stamped into each frame header
	// as the server-side budget, and doubled for the client-side wait.
	reqTimeout time.Duration

	wmu     sync.Mutex
	wbuf    []byte // frames appended and not yet handed to the socket
	spare   []byte // the buffer last written, emptied for the next swap
	writing bool   // a caller is writing and will pick up wbuf; stays set once a write fails
	held    bool   // wbuf holds frames post held back, and hold is armed for them
	// hold writes held frames that no send took along within holdDelay.
	hold *time.Timer

	pmu     sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	broken  bool
	cause   error

	// nextTxn numbers the transaction handles this connection has given out
	// (see Client.begin); never reused, so a handle cannot name two
	// transactions in one session's lifetime.
	nextTxn atomic.Uint64

	// lateCommits counts consecutive commits on this connection that died
	// of engine.ErrDeadlineExceeded; see clientTxn.Commit for why repeated
	// commit deadlines trigger a rotation probe.
	lateCommits atomic.Int32

	// counters points at the owning client's pool counters.
	counters *poolCounters
}

type response struct {
	typ     byte
	payload []byte
	err     error
}

// errRequestTimeout is the cause recorded when the client gives up waiting
// for a response; call maps it onto engine.ErrDeadlineExceeded.
var errRequestTimeout = errors.New("client: request timed out awaiting response")

func dialConn(addr string, opts Options, counters *poolCounters) (*conn, error) {
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // pipelined small frames must not wait on Nagle
	}
	c := &conn{
		nc:         nc,
		reqTimeout: opts.RequestTimeout,
		pending:    make(map[uint64]chan response),
		counters:   counters,
	}
	go c.readLoop()
	return c, nil
}

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		typ, id, payload, err := proto.ReadFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if ok {
			ch <- response{typ: typ, payload: payload}
		}
	}
}

// fail marks the connection broken and releases every in-flight caller with
// the cause; their requests' outcomes are indeterminate. Held frames are
// dropped with the connection.
func (c *conn) fail(cause error) {
	c.nc.Close()
	c.wmu.Lock()
	if c.hold != nil {
		c.hold.Stop()
	}
	c.wmu.Unlock()
	c.pmu.Lock()
	if !c.broken {
		c.broken = true
		c.cause = cause
		if !errors.Is(cause, errClientClosed) {
			c.counters.connLosses.Add(1)
		}
	}
	pending := c.pending
	c.pending = make(map[uint64]chan response)
	c.pmu.Unlock()
	for _, ch := range pending {
		ch <- response{err: cause}
	}
}

func (c *conn) isBroken() bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.broken
}

func (c *conn) close() { c.fail(errClientClosed) }

// waiter is one request in flight: the type it was sent with (its response
// must echo it) and the channel the reader delivers the response on.
type waiter struct {
	typ byte
	ch  chan response
}

// register allots a request id and parks a waiter for its response. Caller
// holds pmu.
func (c *conn) register(typ byte) (uint64, waiter) {
	c.nextID++
	w := waiter{typ: typ, ch: make(chan response, 1)}
	c.pending[c.nextID] = w.ch
	return c.nextID, w
}

// maxIdleBuf bounds each of the two write buffers a connection keeps
// between bursts, so an idle connection holds at most 64 KiB.
const maxIdleBuf = 32 << 10

// send queues one request frame and returns the waiter for its response. A
// non-nil begin is the payload of a transaction's held MsgBegin: that frame
// is appended first, in the same wmu hold, so no frame of another goroutine
// sharing the connection can come between the two; bw is then the waiter for
// the Begin response. If another caller is writing, it takes the frames along
// and send returns at once; otherwise this caller writes them (flush). An
// oversized payload is refused up front with proto.ErrFrameTooLarge, leaving
// the connection up. Transport failures surface as engine.ErrConnLost so
// retry loops treat them like any other retryable conflict.
func (c *conn) send(typ byte, payload, begin []byte) (w, bw waiter, err error) {
	if len(payload) > proto.MaxPayload {
		return w, bw, fmt.Errorf("%w: %d-byte request payload, limit %d", proto.ErrFrameTooLarge, len(payload), proto.MaxPayload)
	}
	var id, beginID uint64
	c.pmu.Lock()
	if c.broken {
		cause := c.cause
		c.pmu.Unlock()
		return w, bw, connLost(cause)
	}
	frames := uint64(1)
	if begin != nil {
		beginID, bw = c.register(proto.MsgBegin)
		frames = 2
	}
	id, w = c.register(typ)
	c.pmu.Unlock()
	c.counters.requests.Add(frames)

	dlMillis := c.budget()
	c.wmu.Lock()
	if begin != nil {
		c.wbuf = proto.AppendFrameD(c.wbuf, proto.MsgBegin, beginID, dlMillis, begin)
	}
	c.wbuf = proto.AppendFrameD(c.wbuf, typ, id, dlMillis, payload)
	if c.writing {
		c.wmu.Unlock()
		return w, bw, nil
	}
	c.writing = true
	c.wmu.Unlock()
	if err := c.flush(); err != nil {
		c.fail(err) // releases every waiter whose frame was queued, ours too
		return w, bw, connLost(err)
	}
	return w, bw, nil
}

// budget is the server-side deadline a frame header carries, in whole
// milliseconds (at least 1 when a RequestTimeout is set; 0 for none).
func (c *conn) budget() uint32 {
	if c.reqTimeout <= 0 {
		return 0
	}
	return max(uint32(c.reqTimeout/time.Millisecond), 1)
}

// holdDelay bounds how long a held frame waits for a send to take it along.
const holdDelay = time.Millisecond

// post queues one request frame whose response nobody awaits: it registers
// no waiter, so readLoop drops the response. The frame is held: it waits in
// wbuf for the connection's next send, which writes it ahead of its own
// frames in the same write, or, if no send comes within holdDelay, for the
// hold timer. Errors are not reported: a frame lost with its connection
// leaves its transaction to the server's session teardown, which aborts it.
func (c *conn) post(typ byte, payload []byte) {
	c.pmu.Lock()
	if c.broken {
		c.pmu.Unlock()
		return
	}
	c.nextID++
	id := c.nextID
	c.pmu.Unlock()
	c.counters.requests.Add(1)

	c.wmu.Lock()
	c.wbuf = proto.AppendFrameD(c.wbuf, typ, id, c.budget(), payload)
	if !c.writing && !c.held { // a writer takes the frame along; an armed timer covers it
		c.held = true
		if c.hold == nil {
			c.hold = time.AfterFunc(holdDelay, c.writeHeld)
		} else {
			c.hold.Reset(holdDelay)
		}
	}
	c.wmu.Unlock()
}

// writeHeld is the hold timer's callback: it writes the held frames, unless
// a send has taken them along or a writer on the socket will.
func (c *conn) writeHeld() {
	c.wmu.Lock()
	if !c.held || c.writing {
		c.wmu.Unlock()
		return
	}
	c.writing = true
	c.wmu.Unlock()
	if err := c.flush(); err != nil {
		c.fail(err)
	}
}

// flush writes the shared buffer with wmu released until a swap finds it
// empty: one socket write per burst of appends. The caller has set writing.
// The yield first lets the callers woken by the same response batch append
// too; the scheduler runs the goroutine readied last first, so without it
// each would find the connection idle and write alone. A lone caller's yield
// returns at once.
func (c *conn) flush() error {
	runtime.Gosched()
	c.wmu.Lock()
	for len(c.wbuf) > 0 {
		buf := c.wbuf
		c.wbuf, c.spare = c.spare[:0], nil
		c.held = false // held frames go out in this write
		c.wmu.Unlock()
		_, err := c.nc.Write(buf)
		c.wmu.Lock()
		if err != nil {
			c.wbuf = nil // writing stays set: nothing more goes out
			c.wmu.Unlock()
			return err
		}
		if cap(buf) <= maxIdleBuf {
			c.spare = buf
		}
	}
	c.writing = false
	c.wmu.Unlock()
	return nil
}

// await blocks for the response to a sent request. Protocol-level outcomes
// are carried in the returned status; transport failures are
// engine.ErrConnLost, like send's.
func (c *conn) await(w waiter) (proto.Status, string, *proto.Dec, error) {
	var r response
	if c.reqTimeout > 0 {
		// Wait twice the budget: the server enforces the deadline at
		// dispatch, so a live connection answers (possibly with the typed
		// deadline status) well inside 2x. Silence past that means the
		// network ate the exchange; a pipeline with a hole in it cannot be
		// trusted, so the whole connection fails.
		timer := time.NewTimer(2 * c.reqTimeout)
		select {
		case r = <-w.ch:
			timer.Stop()
		case <-timer.C:
			c.fail(errRequestTimeout)
			r = <-w.ch // fail delivered the cause (or the response raced in)
		}
	} else {
		r = <-w.ch
	}
	if r.err != nil {
		if errors.Is(r.err, errRequestTimeout) {
			return 0, "", nil, fmt.Errorf("%w: %v", engine.ErrDeadlineExceeded, r.err)
		}
		return 0, "", nil, connLost(r.err)
	}
	if r.typ != w.typ|proto.RespFlag {
		err := fmt.Errorf("%w: response type %#x for request %#x", proto.ErrBadFrame, r.typ, w.typ)
		c.fail(err)
		return 0, "", nil, connLost(err)
	}
	d := proto.NewDec(r.payload)
	st := d.Status()
	detail := string(d.Bytes())
	if d.Err() != nil {
		c.fail(d.Err())
		return 0, "", nil, connLost(d.Err())
	}
	return st, detail, d, nil
}

// call performs one request/response exchange.
func (c *conn) call(typ byte, payload []byte) (proto.Status, string, *proto.Dec, error) {
	w, _, err := c.send(typ, payload, nil)
	if err != nil {
		return 0, "", nil, err
	}
	return c.await(w)
}

// ping round-trips a MsgPing, returning the server's primary epoch and
// engine health state.
func (c *conn) ping() (epoch uint64, health engine.HealthState, err error) {
	st, detail, d, err := c.call(proto.MsgPing, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := st.Err(detail); err != nil {
		return 0, 0, err
	}
	epoch = d.U64()
	health = engine.HealthState(d.U8())
	return epoch, health, d.Err()
}

func connLost(cause error) error {
	return fmt.Errorf("%w: %v", engine.ErrConnLost, cause)
}
