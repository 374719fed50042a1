package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"ermia/internal/engine"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000)}
	var buf bytes.Buffer
	for i, p := range payloads {
		if err := WriteFrame(&buf, MsgGet, uint64(i)+7, p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, id, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != MsgGet || id != uint64(i)+7 || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: typ=%d id=%d len=%d", i, typ, id, len(got))
		}
	}
	if _, _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("empty stream: %v, want EOF", err)
	}
}

// TestAppendResponseMatchesAppendFrame: a response encoded in place is the
// frame AppendFrame makes of the assembled status, detail and body, appended
// after whatever the buffer already holds. The detail lengths cover one- and
// two-byte uvarint prefixes.
func TestAppendResponseMatchesAppendFrame(t *testing.T) {
	prefix := []byte("earlier frames")
	for _, c := range []struct {
		st     Status
		detail string
		body   []byte
	}{
		{StatusOK, "", nil},
		{StatusOK, "", bytes.Repeat([]byte{0xCD}, 300)},
		{StatusInternal, "boom", nil},
		{StatusInternal, string(bytes.Repeat([]byte{'d'}, 200)), []byte("body")},
	} {
		payload := AppendBytes(AppendStatus(nil, c.st), []byte(c.detail))
		payload = append(payload, c.body...)
		want := AppendFrame(append([]byte(nil), prefix...), MsgScan|RespFlag, 9, payload)
		got := AppendResponse(append([]byte(nil), prefix...), MsgScan, 9, c.st, c.detail, c.body)
		if !bytes.Equal(got, want) {
			t.Fatalf("status %v, %d-byte detail: AppendResponse differs from AppendFrame", c.st, len(c.detail))
		}
	}
}

// TestFrameCorruption flips every byte of an encoded frame in turn; each
// corruption must be rejected (bad magic/version/CRC) or — when it hits the
// length field — fail to parse, never silently deliver wrong bytes.
func TestFrameCorruption(t *testing.T) {
	frame := AppendFrame(nil, MsgCommit, 42, []byte("payload-bytes"))
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x5A
		typ, id, payload, err := ReadFrame(bytes.NewReader(mut))
		if err == nil && (typ != MsgCommit || id != 42 || !bytes.Equal(payload, []byte("payload-bytes"))) {
			t.Fatalf("byte %d: corruption delivered wrong frame", i)
		}
		if err == nil {
			t.Fatalf("byte %d: corruption not detected", i)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	frame := AppendFrame(nil, MsgScan, 3, []byte("abcdef"))
	for cut := 1; cut < len(frame); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("cut %d: truncated frame accepted", cut)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var h [HeaderSize]byte
	copy(h[:], AppendFrame(nil, MsgGet, 1, nil)[:HeaderSize])
	h[16], h[17], h[18], h[19] = 0xFF, 0xFF, 0xFF, 0x7F
	_, _, _, err := ReadFrame(bytes.NewReader(h[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	if err := WriteFrame(io.Discard, MsgGet, 1, make([]byte, MaxPayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
}

// TestFrameDeadlineRoundTrip pins the deadline header field: WriteFrameD's
// budget comes back from ReadFrameD exactly, and the legacy no-deadline
// wrappers read/write 0.
func TestFrameDeadlineRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrameD(&buf, MsgCommit, 11, 2500, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgGet, 12, nil); err != nil {
		t.Fatal(err)
	}
	typ, id, dl, p, err := ReadFrameD(&buf)
	if err != nil || typ != MsgCommit || id != 11 || dl != 2500 || string(p) != "p" {
		t.Fatalf("frame 1: typ=%d id=%d dl=%d err=%v", typ, id, dl, err)
	}
	_, _, dl, _, err = ReadFrameD(&buf)
	if err != nil || dl != 0 {
		t.Fatalf("frame 2: dl=%d err=%v, want 0 deadline", dl, err)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	b := AppendU64(nil, 1<<60)
	b = AppendBytes(b, []byte("key"))
	b = AppendU32(b, 99)
	b = AppendU8(b, 7)
	b = AppendBytes(b, nil)
	b = AppendU16(b, 1234)
	d := NewDec(b)
	if d.U64() != 1<<60 || string(d.Bytes()) != "key" || d.U32() != 99 ||
		d.U8() != 7 || len(d.Bytes()) != 0 || d.U16() != 1234 {
		t.Fatal("round trip mismatch")
	}
	if d.Err() != nil {
		t.Fatalf("err: %v", d.Err())
	}
	// Reading past the end must stick.
	d.U64()
	if d.Err() == nil {
		t.Fatal("overread not detected")
	}
}

// TestStatusBijection pins the error<->status mapping in both directions for
// the whole taxonomy: what the server encodes, the client must rebuild as an
// error for which errors.Is of the original sentinel holds, with identical
// retry/outcome classification.
func TestStatusBijection(t *testing.T) {
	sentinels := []error{
		engine.ErrNotFound, engine.ErrDuplicate, engine.ErrWriteConflict,
		engine.ErrReadValidation, engine.ErrSerialization, engine.ErrPhantom,
		engine.ErrAborted, engine.ErrReadOnlyDegraded, engine.ErrOverloaded,
		engine.ErrShutdown, engine.ErrDeadlineExceeded, engine.ErrStaleEpoch,
		ErrUnknownTxn, ErrUnknownTable, ErrBadRequest,
	}
	for _, sent := range sentinels {
		st, detail := StatusOf(fmt.Errorf("wrapped: %w", sent))
		if st == StatusInternal {
			t.Fatalf("%v mapped to StatusInternal", sent)
		}
		back := st.Err(detail)
		if !errors.Is(back, sent) {
			t.Fatalf("status %d: rebuilt %v, want Is(%v)", st, back, sent)
		}
		if engine.IsRetryable(back) != engine.IsRetryable(sent) ||
			engine.Classify(back) != engine.Classify(sent) {
			t.Fatalf("%v: classification changed over the wire", sent)
		}
	}

	if st, _ := StatusOf(nil); st != StatusOK {
		t.Fatal("nil must map to StatusOK")
	}
	if err := StatusOK.Err(""); err != nil {
		t.Fatalf("StatusOK.Err = %v", err)
	}
	st, detail := StatusOf(errors.New("novel failure"))
	if st != StatusInternal || detail != "novel failure" {
		t.Fatalf("unknown error: status=%d detail=%q", st, detail)
	}
	if err := st.Err(detail); err == nil || engine.Classify(err) != engine.OutcomeFatal {
		t.Fatalf("internal status must stay fatal: %v", err)
	}
}
