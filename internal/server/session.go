package server

import (
	"bufio"
	"encoding/binary"
	"time"

	"sync"
	"sync/atomic"

	"net"

	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/repl"
)

// pipelineWindow bounds decoded-but-unprocessed requests per session; a
// client pipelining deeper than this blocks in the TCP stream, which is the
// per-connection backpressure.
const pipelineWindow = 64

// scanPageSize caps key/value pairs in one Scan response page, whatever
// limit the client asks for; clients page transparently.
const scanPageSize = 1024

// openTxn is one live transaction owned by a session.
type openTxn struct {
	txn      engine.Txn
	slot     int
	readOnly bool
}

type request struct {
	typ     byte
	id      uint64
	payload []byte
	// deadline is the absolute expiry computed from the frame header's
	// relative budget when the frame was read; zero means none. Requests
	// overdue at dispatch are refused with StatusDeadlineExceeded and any
	// transaction they name is aborted, so a stalled pipeline sheds load
	// instead of executing work nobody is waiting for.
	deadline time.Time
}

// wbufSize is the fill at which a session's buffer is written at once, and
// the largest buffer kept between bursts. A handler or shipper that finds it
// this full while another goroutine writes waits for that writer to finish.
const wbufSize = 64 << 10

// session is one connection: a reader goroutine decodes frames into a
// bounded queue and a handler goroutine executes them in arrival order.
// Each response is encoded once, into the session's write buffer, and
// written by the goroutine that produced it; the group committer only
// appends acks and wakes flushAcks. wg counts the shipper and pending acks.
type session struct {
	srv *Server
	nc  net.Conn

	reqs  chan request
	acked chan struct{} // one slot: the committer's wake-up for flushAcks
	wg    sync.WaitGroup

	wmu     sync.Mutex // guards the five fields below
	wdone   sync.Cond  // broadcast when a writer stops
	wbuf    []byte     // responses not yet handed to the socket
	spare   []byte     // the buffer last written, emptied for the next swap
	writing bool       // a goroutine is writing and will pick up wbuf
	werr    error      // set by a failed write; nothing more is written

	scratch []byte // the handler's response bodies, reused

	txns     map[uint64]openTxn
	openTxns atomic.Int32 // mirror of len(txns) readable off-thread
	tables   map[string]engine.Table

	// replStop, once a replication subscription starts, stops its shipper
	// goroutine. Owned by the handler goroutine (created in
	// handleReplSubscribe, closed in teardown).
	replStop chan struct{}
}

func newSession(srv *Server, nc net.Conn) *session {
	s := &session{
		srv:    srv,
		nc:     nc,
		reqs:   make(chan request, pipelineWindow),
		acked:  make(chan struct{}, 1),
		txns:   make(map[uint64]openTxn),
		tables: make(map[string]engine.Table),
	}
	s.wdone.L = &s.wmu
	return s
}

func (s *session) start() {
	go s.readLoop()
	go s.flushAcks()
	go s.run()
}

// kickIfIdle unparks a session that holds no transactions so its handler
// can drain queued work and exit; used by Shutdown. An immediate read
// deadline (rather than closing the connection) lets responses already owed
// still be written.
func (s *session) kickIfIdle() {
	if s.openTxns.Load() == 0 {
		s.nc.SetReadDeadline(time.Unix(1, 0))
	}
}

// forceClose tears the connection down; the reader unblocks with an error
// and the handler aborts whatever is still open.
func (s *session) forceClose() { s.nc.Close() }

func (s *session) readLoop() {
	defer close(s.reqs)
	br := bufio.NewReaderSize(s.nc, 64<<10)
	idle := s.srv.cfg.IdleTimeout
	for {
		if idle > 0 {
			// Half-open reaper: a peer that sends nothing (not even a Ping)
			// for a full idle window is presumed gone. Left untouched when
			// disabled so kickIfIdle's past-deadline poke is never undone.
			s.nc.SetReadDeadline(time.Now().Add(idle))
		}
		typ, id, dl, payload, err := proto.ReadFrameD(br)
		if err != nil {
			return // EOF, forced close, drain kick, idle/deadline, or framing violation
		}
		req := request{typ: typ, id: id, payload: payload}
		if dl > 0 {
			// The budget is relative: the countdown starts the moment the
			// frame is off the wire, so no clock sync with the client needed.
			req.deadline = time.Now().Add(time.Duration(dl) * time.Millisecond)
		}
		s.reqs <- req
	}
}

// reply appends a response and writes the buffer if that filled it. Only
// the handler and the shipper call it; each flushes after its burst.
func (s *session) reply(typ byte, reqID uint64, st proto.Status, detail string, body []byte) {
	if s.add(typ, reqID, st, detail, body) >= wbufSize {
		s.flush()
	}
}

// add encodes a response at the end of the buffer and returns its length.
func (s *session) add(typ byte, reqID uint64, st proto.Status, detail string, body []byte) int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.wbuf = proto.AppendResponse(s.wbuf, typ, reqID, st, detail, body)
	return len(s.wbuf)
}

// flush writes the buffer with wmu released, swapping it out until a swap
// finds it empty, as the client's conn.flush does. If another goroutine is
// writing, that one takes these bytes along. A failed write closes the
// connection, so the session tears down; flush returns its error.
func (s *session) flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for s.writing && len(s.wbuf) >= wbufSize {
		s.wdone.Wait()
	}
	if s.writing || s.werr != nil {
		return s.werr
	}
	s.writing = true
	for len(s.wbuf) > 0 {
		buf := s.wbuf
		s.wbuf, s.spare = s.spare[:0], nil
		s.wmu.Unlock()
		s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.WriteTimeout))
		_, err := s.nc.Write(buf)
		s.wmu.Lock()
		if err != nil {
			s.werr, s.wbuf = err, nil
			s.nc.Close()
		} else if cap(buf) <= wbufSize {
			s.spare = buf
		}
	}
	s.writing = false
	s.wdone.Broadcast()
	return s.werr
}

// flushAcks writes the committer's acks. Once teardown closes acked, it
// writes what is left and finishes the connection.
func (s *session) flushAcks() {
	for range s.acked {
		s.flush()
	}
	s.flush()
	s.nc.Close()
	s.srv.removeSession(s)
}

// run is the handler goroutine; it owns s.txns and the session lifecycle.
func (s *session) run() {
	defer s.teardown()
	for req := range s.reqs {
		s.dispatch(req)
		if len(s.reqs) == 0 {
			s.flush()
		}
		if cap(s.scratch) > wbufSize {
			s.scratch = nil // a large page or value is not kept for the session's life
		}
		if s.srv.draining() && len(s.txns) == 0 && len(s.reqs) == 0 {
			return // graceful drain: nothing owed, nothing open
		}
	}
}

// teardown aborts orphaned transactions through the normal engine abort
// path (releasing their slots and epoch resources), then shuts the
// goroutines down in dependency order.
func (s *session) teardown() {
	for id, ot := range s.txns {
		ot.txn.Abort()
		s.srv.aborts.Add(1)
		s.endTxn(id, ot)
	}
	// Unblock a parked reader WITHOUT killing the write side: responses
	// still owed — group-commit acks in particular — must reach the peer
	// before the connection dies.
	if tc, ok := s.nc.(*net.TCPConn); ok {
		tc.CloseRead()
	} else {
		s.nc.SetReadDeadline(time.Unix(1, 0))
	}
	for range s.reqs { // reap queued requests so the reader can exit
	}
	if s.replStop != nil {
		close(s.replStop) // the shipper is tracked in wg; stop it first
	}
	s.wg.Wait()    // the shipper and the committer's acks have appended all they will
	close(s.acked) // flushAcks writes the rest and finishes the connection
}

func (s *session) endTxn(id uint64, ot openTxn) {
	delete(s.txns, id)
	s.openTxns.Add(-1)
	s.srv.openTxns.Add(-1)
	s.srv.releaseSlot(ot.slot)
}

func (s *session) dispatch(req request) {
	if !req.deadline.IsZero() && time.Now().After(req.deadline) {
		s.expire(req)
		return
	}
	d := proto.NewDec(req.payload)
	switch req.typ {
	case proto.MsgBegin:
		s.handleBegin(req, d)
	case proto.MsgGet, proto.MsgInsert, proto.MsgUpdate, proto.MsgDelete:
		s.handleOp(req, d)
	case proto.MsgScan:
		s.handleScan(req, d)
	case proto.MsgCommit:
		s.handleCommit(req, d)
	case proto.MsgAbort:
		s.handleAbort(req, d)
	case proto.MsgCreateTable, proto.MsgOpenTable:
		s.handleTable(req, d)
	case proto.MsgHealth:
		s.handleHealth(req)
	case proto.MsgStats:
		s.handleStats(req)
	case proto.MsgReattach:
		s.handleReattach(req)
	case proto.MsgReplSubscribe:
		s.handleReplSubscribe(req, d)
	case proto.MsgReplAck:
		s.handleReplAck(req, d)
	case proto.MsgPromote:
		s.handlePromote(req)
	case proto.MsgCheckpoint:
		s.handleCheckpoint(req, d)
	case proto.MsgCkptFetch:
		s.handleCkptFetch(req, d)
	case proto.MsgPing:
		s.handlePing(req)
	case proto.MsgShardPrepare:
		s.handleShardPrepare(req, d)
	case proto.MsgShardDecide:
		s.handleShardDecide(req, d)
	case proto.MsgShardMap:
		s.handleShardMap(req)
	case proto.MsgShardPrepared:
		s.handleShardPrepared(req, d)
	default:
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
	}
}

// expire answers an overdue request with StatusDeadlineExceeded. A request
// that names a transaction has it aborted through the normal path first, so
// its worker slot and engine resources free immediately — an abandoned
// deadline must not leak a slot until teardown.
func (s *session) expire(req request) {
	switch req.typ {
	case proto.MsgGet, proto.MsgInsert, proto.MsgUpdate, proto.MsgDelete,
		proto.MsgScan, proto.MsgCommit, proto.MsgAbort, proto.MsgShardPrepare:
		d := proto.NewDec(req.payload)
		txnID := d.U64()
		if d.Err() == nil {
			if ot, ok := s.txns[txnID]; ok {
				ot.txn.Abort()
				s.srv.aborts.Add(1)
				s.endTxn(txnID, ot)
			}
		}
	}
	s.reply(req.typ, req.id, proto.StatusDeadlineExceeded, "", nil)
}

// handlePing serves the liveness probe/handshake: the current primary epoch
// and health state, with no worker slot consumed. Clients use it at dial
// time to learn the epoch before issuing work and periodically as a
// keepalive against the server's IdleTimeout.
func (s *session) handlePing(req request) {
	body := proto.AppendU64(nil, s.srv.epoch.Load())
	body = proto.AppendU8(body, byte(s.srv.dur.Health().State))
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}

// handleBegin opens a transaction and parks it in the session's registry
// under the client's handle; Commit/Abort requests finish it and teardown
// aborts whatever the client left open.
//
//ermia:txn-owner session txn registry owns the handle; handleCommit/handleAbort finish it and teardown aborts leftovers
func (s *session) handleBegin(req request, d *proto.Dec) {
	flags := d.U8()
	// The highest primary epoch the client has observed: a server behind it
	// is a deposed primary that must fence itself rather than accept the work.
	cliEpoch := d.U64()
	handle := d.U64()
	// A live handle names another transaction, which must not be clobbered.
	_, live := s.txns[handle]
	if d.Err() != nil || live || handle&proto.ClientTxnBit == 0 {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	if cliEpoch > s.srv.epoch.Load() {
		s.reply(req.typ, req.id, proto.StatusStaleEpoch, "", nil)
		return
	}
	if s.srv.draining() {
		s.reply(req.typ, req.id, proto.StatusShuttingDown, "", nil)
		return
	}
	slot, ok := s.srv.acquireSlot()
	if !ok {
		s.reply(req.typ, req.id, proto.StatusOverloaded, "", nil)
		return
	}
	var txn engine.Txn
	readOnly := flags&proto.BeginReadOnly != 0
	if readOnly {
		txn = s.srv.db.BeginReadOnly(slot)
	} else {
		txn = s.srv.db.Begin(slot)
	}
	s.txns[handle] = openTxn{txn: txn, slot: slot, readOnly: readOnly}
	s.openTxns.Add(1)
	s.srv.openTxns.Add(1)
	var echo byte
	if readOnly {
		echo = s.srv.roEcho
	}
	s.scratch = proto.AppendU8(proto.AppendU64(s.scratch[:0], handle), echo)
	s.reply(req.typ, req.id, proto.StatusOK, "", s.scratch)
}

// lookupTable resolves a table name through the session cache.
func (s *session) lookupTable(name []byte) engine.Table {
	if t, ok := s.tables[string(name)]; ok {
		return t
	}
	t := s.srv.db.OpenTable(string(name))
	if t != nil {
		s.tables[string(name)] = t
	}
	return t
}

func (s *session) handleOp(req request, d *proto.Dec) {
	txnID := d.U64()
	name := d.Bytes()
	key := d.Bytes()
	var value []byte
	if req.typ == proto.MsgInsert || req.typ == proto.MsgUpdate {
		value = d.Bytes()
	}
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.reply(req.typ, req.id, proto.StatusUnknownTxn, "", nil)
		return
	}
	tbl := s.lookupTable(name)
	if tbl == nil {
		s.reply(req.typ, req.id, proto.StatusUnknownTable, "", nil)
		return
	}
	var body []byte
	var err error
	switch req.typ {
	case proto.MsgGet:
		var v []byte
		if v, err = ot.txn.Get(tbl, key); err == nil {
			s.scratch = proto.AppendBytes(s.scratch[:0], v)
			body = s.scratch
		}
	case proto.MsgInsert:
		err = ot.txn.Insert(tbl, key, value)
	case proto.MsgUpdate:
		err = ot.txn.Update(tbl, key, value)
	case proto.MsgDelete:
		err = ot.txn.Delete(tbl, key)
	}
	st, detail := proto.StatusOf(err)
	s.reply(req.typ, req.id, st, detail, body)
}

func (s *session) handleScan(req request, d *proto.Dec) {
	txnID := d.U64()
	name := d.Bytes()
	limit := d.U32()
	hasHi := d.U8()
	lo := d.Bytes()
	hi := d.Bytes()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.reply(req.typ, req.id, proto.StatusUnknownTxn, "", nil)
		return
	}
	tbl := s.lookupTable(name)
	if tbl == nil {
		s.reply(req.typ, req.id, proto.StatusUnknownTable, "", nil)
		return
	}
	if limit == 0 || limit > scanPageSize {
		limit = scanPageSize
	}
	var hiArg []byte
	if hasHi != 0 {
		hiArg = hi
	}
	// A u32 count, patched once the scan ends, the pairs, the more flag.
	page := proto.AppendU32(s.scratch[:0], 0)
	var n uint32
	more := byte(0)
	err := ot.txn.Scan(tbl, lo, hiArg, func(k, v []byte) bool {
		if n >= limit {
			more = 1
			return false
		}
		page = proto.AppendBytes(page, k)
		page = proto.AppendBytes(page, v)
		n++
		return true
	})
	s.scratch = page
	st, detail := proto.StatusOf(err)
	if st != proto.StatusOK {
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	binary.LittleEndian.PutUint32(page, n)
	s.reply(req.typ, req.id, proto.StatusOK, "", proto.AppendU8(page, more))
}

// handleCommit runs the engine commit synchronously (it is the CC protocol,
// cheap and in-memory) and hands the acknowledgment to ackDurable. The
// transaction's slot is released as soon as the engine is done with it —
// the durability wait holds no engine resources.
func (s *session) handleCommit(req request, d *proto.Dec) {
	txnID := d.U64()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.reply(req.typ, req.id, proto.StatusUnknownTxn, "", nil)
		return
	}
	err := ot.txn.Commit()
	s.endTxn(txnID, ot) // either way the engine transaction is finished
	if err != nil {
		s.srv.aborts.Add(1)
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	if ot.readOnly {
		// Nothing was logged; there is no durability to wait for (and a
		// degraded log must not poison read-only service).
		s.srv.commits.Add(1)
		s.reply(req.typ, req.id, proto.StatusOK, "", nil)
		return
	}
	s.ackDurable(req, s.srv.epoch.Load(), true)
}

// ackDurable releases the acknowledgment of a write commit, a shard prepare
// or a shard decide under the server's durability policy: none acks at
// once, group acks ride the shared committer (one WaitDurable covers every
// ack gathered behind the in-flight sync). isCommit marks acks that
// represent an acked write commit for the per-epoch single-writer audit.
func (s *session) ackDurable(req request, epoch uint64, isCommit bool) {
	if s.srv.cfg.Durability == DurabilityNone {
		if isCommit {
			s.srv.noteCommit(epoch)
		}
		s.reply(req.typ, req.id, proto.StatusOK, "", nil)
		return
	}
	ack := commitAck{sess: s, reqID: req.id, typ: req.typ, epoch: epoch, deadline: req.deadline, count: isCommit}
	if s.srv.cfg.SyncRepl {
		// The replica must acknowledge applying the log through this ack's
		// bytes before the client hears OK. Deadline-less requests get the
		// server-side cap so a dead or fenced-off subscriber cannot park the
		// committer forever.
		if log := s.srv.shipLog(); log != nil {
			ack.target = log.CurrentOffset()
		}
		replCap := time.Now().Add(s.srv.cfg.SyncReplWait)
		if ack.deadline.IsZero() || replCap.Before(ack.deadline) {
			ack.deadline = replCap
		}
	}
	s.wg.Add(1)
	s.srv.gc.enqueue(ack)
}

func (s *session) handleAbort(req request, d *proto.Dec) {
	txnID := d.U64()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ot, ok := s.txns[txnID]
	if !ok {
		s.reply(req.typ, req.id, proto.StatusUnknownTxn, "", nil)
		return
	}
	ot.txn.Abort()
	s.srv.aborts.Add(1)
	s.endTxn(txnID, ot)
	s.reply(req.typ, req.id, proto.StatusOK, "", nil)
}

func (s *session) handleTable(req request, d *proto.Dec) {
	name := d.Bytes()
	if d.Err() != nil || len(name) == 0 {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	if req.typ == proto.MsgCreateTable {
		t := s.srv.db.CreateTable(string(name))
		if t == nil {
			// A replica engine refuses catalog changes; the table must be
			// created on the primary and arrive through the shipped log.
			s.reply(req.typ, req.id, proto.StatusReplicaReadOnly, "", nil)
			return
		}
		s.tables[string(name)] = t
		s.reply(req.typ, req.id, proto.StatusOK, "", nil)
		return
	}
	if s.lookupTable(name) == nil {
		s.reply(req.typ, req.id, proto.StatusNotFound, "", nil)
		return
	}
	s.reply(req.typ, req.id, proto.StatusOK, "", nil)
}

func (s *session) handleHealth(req request) {
	st := s.srv.dur.Health()
	cause := ""
	if st.Cause != nil {
		cause = st.Cause.Error()
	}
	body := proto.AppendU8(nil, byte(st.State))
	body = proto.AppendBytes(body, []byte(cause))
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}

func (s *session) handleStats(req request) {
	st := s.srv.Stats()
	s.reply(req.typ, req.id, proto.StatusOK, "", proto.AppendServerStats(nil, &st))
}

// handleReattach serves the admin Reattach frame: heal the engine's log on
// its current device.
func (s *session) handleReattach(req request) {
	report, err := s.srv.dur.Reattach(nil)
	st, detail := proto.StatusOf(err)
	var body []byte
	if st == proto.StatusOK {
		body = proto.AppendBytes(nil, []byte(report.String()))
	}
	s.reply(req.typ, req.id, st, detail, body)
}

// handlePromote serves the admin promotion frame: flip a replica engine to
// primary through the wiring the operator supplied.
func (s *session) handlePromote(req request) {
	if s.srv.cfg.PromoteFn == nil {
		s.reply(req.typ, req.id, proto.StatusInternal, "promote unsupported on this server", nil)
		return
	}
	report, err := s.srv.cfg.PromoteFn()
	st, detail := proto.StatusOf(err)
	var body []byte
	if st == proto.StatusOK {
		body = proto.AppendBytes(nil, []byte(report))
	}
	s.reply(req.typ, req.id, st, detail, body)
}

// ckptChunkSize bounds one CkptFetch response chunk, well under
// proto.MaxPayload with room for the metadata fields.
const ckptChunkSize = 1 << 20

// handleCheckpoint serves the admin Checkpoint frame: take a consistent
// checkpoint now and, when the truncate flag is set, free the sealed log
// segments below it. Runs synchronously on the handler goroutine — the
// engine-side scan does not block writers, only this session's pipeline.
func (s *session) handleCheckpoint(req request, d *proto.Dec) {
	flags := d.U8()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ck := s.srv.ckpt
	if ck == nil {
		s.reply(req.typ, req.id, proto.StatusInternal, "checkpoint unsupported by this engine", nil)
		return
	}
	if err := ck.Checkpoint(); err != nil {
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	var freed uint32
	if flags&proto.CkptTruncate != 0 {
		removed, err := ck.TruncateLog()
		if err != nil {
			st, detail := proto.StatusOf(err)
			s.reply(req.typ, req.id, st, detail, nil)
			return
		}
		freed = uint32(len(removed))
	}
	var begin uint64
	if c, err := ck.CheckpointChunk(0, 0); err == nil {
		begin = c.Begin
	}
	s.srv.checkpoints.Add(1)
	body := proto.AppendU64(nil, begin)
	body = proto.AppendU32(body, freed)
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}

// handleCkptFetch serves one chunk of the newest checkpoint image for
// snapshot-seeded replica bootstrap.
func (s *session) handleCkptFetch(req request, d *proto.Dec) {
	off := d.U64()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	ck := s.srv.ckpt
	if ck == nil {
		s.reply(req.typ, req.id, proto.StatusNoCheckpoint, "", nil)
		return
	}
	c, err := ck.CheckpointChunk(off, ckptChunkSize)
	if err != nil {
		st, detail := proto.StatusOf(err)
		s.reply(req.typ, req.id, st, detail, nil)
		return
	}
	body := proto.AppendBytes(nil, []byte(c.Name))
	body = proto.AppendU64(body, c.Gen)
	body = proto.AppendU64(body, c.Begin)
	body = proto.AppendU64(body, c.Start)
	body = proto.AppendU64(body, c.Total)
	body = proto.AppendBytes(body, c.Data)
	s.reply(req.typ, req.id, proto.StatusOK, "", body)
}

// handleReplSubscribe starts streaming the primary's log to this session.
// The subscribe response goes out first; batch frames then ride the same
// request id with MsgReplBatch|RespFlag until the session ends. The
// shipper goroutine registers in s.wg like an async commit responder, and
// teardown closes replStop before waiting on wg, so the drain order stays
// deadlock-free.
func (s *session) handleReplSubscribe(req request, d *proto.Dec) {
	from := d.U64()
	if d.Err() != nil || s.replStop != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	log := s.srv.shipLog()
	if log == nil {
		s.reply(req.typ, req.id, proto.StatusInternal,
			"replication unavailable: server engine has no live log (replica or logless)", nil)
		return
	}
	s.replStop = make(chan struct{})
	s.srv.replSubscribers.Add(1)
	s.reply(req.typ, req.id, proto.StatusOK, "", nil)
	s.wg.Add(1)
	go func(reqID, from uint64, stop chan struct{}) {
		defer s.wg.Done()
		defer s.srv.replSubscribers.Add(-1)
		var body []byte
		sh := &repl.Shipper{
			Log:       log,
			Heartbeat: s.srv.cfg.ReplHeartbeat,
			OnIdle: func() error {
				// Liveness beacon on a quiet stream: epoch plus durable
				// horizon. The replica answers with a MsgReplAck, which
				// keeps both directions inside their idle timeouts.
				body = proto.AppendU64(body[:0], s.srv.epoch.Load())
				body = proto.AppendU64(body, log.DurableOffset())
				s.reply(proto.MsgReplHeartbeat, reqID, proto.StatusOK, "", body)
				return s.flush()
			},
		}
		err := sh.Run(from, stop, func(b *proto.ReplBatch) error {
			b.Epoch = s.srv.epoch.Load()
			if n := len(b.Blocks); n > 0 {
				last := &b.Blocks[n-1]
				storeMax(&s.srv.replShipped, last.Off+uint64(last.Size))
			}
			s.srv.replBatches.Add(1)
			body = proto.AppendReplBatch(body[:0], b)
			s.reply(proto.MsgReplBatch, reqID, proto.StatusOK, "", body)
			return s.flush()
		})
		if err != nil {
			// Tail failure: tell the subscriber why the stream died (its
			// suffix was truncated away, or the log is corrupt).
			st, detail := proto.StatusOf(err)
			s.reply(proto.MsgReplBatch, reqID, st, detail, nil)
			s.flush()
		}
	}(req.id, from, s.replStop)
}

// handleReplAck records a subscriber's applied watermark.
func (s *session) handleReplAck(req request, d *proto.Dec) {
	wm := d.U64()
	if d.Err() != nil {
		s.reply(req.typ, req.id, proto.StatusBadRequest, "", nil)
		return
	}
	storeMax(&s.srv.replAcked, wm)
	s.reply(req.typ, req.id, proto.StatusOK, "", nil)
}
