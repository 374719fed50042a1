package server

import (
	"bytes"
	"testing"

	"ermia/internal/alloctest"
	"ermia/internal/proto"
)

// TestReplyAllocBudget pins the response path at zero allocations: a reply
// is encoded in place into the session's write buffer, so once the buffer
// is warm, appending a status-only response, a 100-byte Get or a 20-row
// scan page allocates nothing.
func TestReplyAllocBudget(t *testing.T) {
	s := newSession(nil, nil)
	s.wbuf = make([]byte, 0, 4<<10)
	get := proto.AppendBytes(nil, bytes.Repeat([]byte{'v'}, 100))
	page := proto.AppendU32(nil, 20)
	for i := 0; i < 20; i++ {
		page = proto.AppendBytes(page, []byte("key-000000000000"))
		page = proto.AppendBytes(page, bytes.Repeat([]byte{'v'}, 100))
	}
	page = proto.AppendU8(page, 1)
	for _, c := range []struct {
		name string
		typ  byte
		body []byte
	}{
		{"status", proto.MsgCommit, nil},
		{"get", proto.MsgGet, get},
		{"scanPage", proto.MsgScan, page},
	} {
		t.Run(c.name, func(t *testing.T) {
			alloctest.Budget(t, 0, func() {
				s.wbuf = s.wbuf[:0]
				s.reply(c.typ, 7, proto.StatusOK, "", c.body)
			})
		})
	}
}
