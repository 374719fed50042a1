package client

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"ermia/internal/alloctest"
	"ermia/internal/proto"
)

// okPeer answers every request frame on nc with StatusOK, allocating nothing
// per frame, so that an allocation count taken around a call is the
// client's own. A Begin's response echoes its handle with
// proto.BeginEndUnawaited set, a Ping's carries epoch 0 and health 0, and
// any other carries one empty byte string (a Get's empty value).
func okPeer(nc net.Conn) {
	br := bufio.NewReader(nc)
	hdr := make([]byte, proto.HeaderSize)
	in := make([]byte, 0, 64)
	var body, out []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[16:])) + 4 // payload, CRC
		if n > cap(in) {
			in = make([]byte, n)
		}
		if _, err := io.ReadFull(br, in[:n]); err != nil {
			return
		}
		body = proto.AppendBytes(proto.AppendStatus(body[:0], proto.StatusOK), nil)
		switch typ := hdr[3]; {
		case typ == proto.MsgBegin && n >= 17+4: // flags, epoch, handle; CRC
			body = proto.AppendU8(append(body, in[9:17]...), proto.BeginEndUnawaited)
		case typ == proto.MsgPing:
			body = proto.AppendU8(proto.AppendU64(body, 0), 0)
		default:
			body = proto.AppendBytes(body, nil)
		}
		out = proto.AppendFrame(out[:0], hdr[3]|proto.RespFlag, binary.LittleEndian.Uint64(hdr[4:]), body)
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// TestAllocBudgets pins what one exchange allocates on the send/await path:
// the response channel and its buffer, the decoder, and the reader
// goroutine's two for the incoming frame. Frames are encoded straight into
// the connection's write buffer, which is kept between sends, so encoding
// costs nothing. A held Begin written ahead of an operation is a second
// exchange and costs one more of each. A held post registers no waiter and
// allocates nothing itself. A read-only transaction of four Gets on a warm
// client adds its handle to five exchanges and the reader's two for the
// held Commit's unread response; its payloads are built in the handle.
func TestAllocBudgets(t *testing.T) {
	near, far := net.Pipe()
	go okPeer(far)
	cn, err := dialConn("", Options{
		Dial: func(string, time.Duration) (net.Conn, error) { return near, nil },
	}, &poolCounters{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	payload := proto.AppendBytes(proto.AppendU64(nil, proto.ClientTxnBit|1), []byte("key"))

	t.Run("call", func(t *testing.T) {
		alloctest.Budget(t, 5, func() {
			if _, _, _, err := cn.call(proto.MsgGet, payload); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("begin+op", func(t *testing.T) {
		begin := make([]byte, 17)
		alloctest.Budget(t, 10, func() {
			w, bw, err := cn.send(proto.MsgGet, payload, begin)
			if err == nil {
				_, _, _, err = cn.await(bw)
			}
			if err == nil {
				_, _, _, err = cn.await(w)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("held post", func(t *testing.T) {
		alloctest.Budget(t, 0, func() {
			cn.post(proto.MsgCommit, payload)
			// Drop the frame before the timer writes it, so the peer's
			// answer, which the reader would allocate for, never comes.
			cn.wmu.Lock()
			cn.wbuf, cn.held = cn.wbuf[:0], false
			cn.wmu.Unlock()
		})
	})
	t.Run("read-only txn", func(t *testing.T) {
		c := &Client{opts: Options{PoolSize: 1}, conns: []*conn{cn}, tables: make(map[string]*clientTable)}
		cn.counters = &c.counters
		tbl := c.handle("t")
		tbl.ensured = true
		key := []byte("key")
		alloctest.Budget(t, 28, func() {
			txn := c.BeginReadOnly(0)
			for i := 0; i < 4; i++ {
				if _, err := txn.Get(tbl, key); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	})
}
