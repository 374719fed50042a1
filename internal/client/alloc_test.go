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

// okPeer answers every request frame on nc with an empty StatusOK response,
// allocating nothing per frame, so that an allocation count taken around a
// call is the client's own.
func okPeer(nc net.Conn) {
	br := bufio.NewReader(nc)
	ok := proto.AppendBytes(proto.AppendStatus(nil, proto.StatusOK), nil)
	hdr := make([]byte, proto.HeaderSize)
	var out []byte
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		body := int(binary.LittleEndian.Uint32(hdr[16:])) + 4 // payload, CRC
		if _, err := br.Discard(body); err != nil {
			return
		}
		out = proto.AppendFrame(out[:0], hdr[3]|proto.RespFlag, binary.LittleEndian.Uint64(hdr[4:]), ok)
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
// exchange and costs one more of each.
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
}
