// Package proto is the wire protocol of the ERMIA network service: a
// length-prefixed, CRC-protected binary framing plus the payload encodings
// shared by internal/server and internal/client.
//
// Frame layout (little-endian):
//
//	offset  size  field
//	0       2     magic 0xE27A
//	2       1     protocol version (2)
//	3       1     message type (high bit set on responses)
//	4       8     request id (echoed verbatim in the response)
//	12      4     deadline budget in milliseconds (0 = none)
//	16      4     payload length N
//	20      N     payload
//	20+N    4     CRC-32C over bytes [0, 20+N)
//
// The deadline field is a *relative* budget, not an absolute timestamp, so
// it needs no clock synchronization: the server starts the countdown when it
// reads the frame. A request still queued past its budget is answered with
// StatusDeadlineExceeded instead of occupying the pipeline; 0 means the
// request waits forever. Responses carry 0.
//
// Responses to a request of type T carry type T|RespFlag and a payload that
// begins with a 2-byte status code; the rest of the payload is
// message-specific. Requests on one connection may be pipelined arbitrarily;
// the server is free to answer commits out of order (group commit), which is
// why responses are matched by request id rather than by arrival order.
//
// Payload fields use the Enc/Dec helpers below: fixed-width little-endian
// integers and uvarint-length-prefixed byte strings.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Framing constants.
const (
	Magic      = 0xE27A
	Version    = 2
	HeaderSize = 20
	// MaxPayload bounds a single frame's payload; larger messages (scans)
	// must page. It also caps the allocation a hostile peer can force.
	MaxPayload = 8 << 20
	// RespFlag marks a frame as the response to the request type in the low
	// bits.
	RespFlag = 0x80
)

// Message types. A response frame uses the request's type with RespFlag set.
const (
	// MsgBegin opens a transaction. Request: u8 flags (BeginReadOnly), u64
	// highest primary epoch the client has observed (a server behind it is a
	// deposed primary and answers StatusStaleEpoch), u64 client-assigned
	// transaction handle, the number every later frame of the transaction
	// names. Response: u64 the handle, echoed, then u8 flags
	// (BeginEndUnawaited). The server registers the transaction under the
	// handle, which lets the client write Begin and the transaction's first
	// frame back to back without waiting; the handle must carry ClientTxnBit
	// and name no transaction still open on the connection (StatusBadRequest
	// otherwise, as for a short payload). The flags byte was appended later:
	// a client that stops reading after the handle loses nothing, and one
	// that finds no byte there reads the flags as 0.
	MsgBegin byte = iota + 1
	MsgGet
	MsgInsert
	MsgUpdate
	MsgDelete
	MsgScan
	MsgCommit
	MsgAbort
	MsgCreateTable
	MsgOpenTable
	MsgHealth
	MsgStats
	MsgReattach
	// MsgReplSubscribe opens a replication stream: the request carries the
	// log offset to resume from, and after the normal response the server
	// pushes MsgReplBatch|RespFlag frames with the same request id.
	MsgReplSubscribe
	// MsgReplBatch frames are server-pushed batches of raw log blocks; see
	// ReplBatch. Only ever sent with RespFlag set.
	MsgReplBatch
	// MsgReplAck reports the replica's applied watermark back to the
	// primary, which persists it per subscriber for stream resumption.
	MsgReplAck
	// MsgPromote asks a replica server to seal its stream, run the recovery
	// tail over the mirrored log, and flip to a writable primary.
	MsgPromote
	// MsgCheckpoint asks the primary to take a consistent checkpoint now.
	// Request: u8 flags (CkptTruncate). Response: u64 checkpoint-begin
	// offset, u32 log segments freed by truncation.
	MsgCheckpoint
	// MsgCkptFetch reads a slice of the newest checkpoint image for
	// snapshot-seeded replica bootstrap. Request: u64 byte offset.
	// Response: name (bytes), u64 generation, u64 begin offset, u64
	// subscribe offset, u64 total image size, chunk (bytes). The metadata
	// rides on every chunk so a fetcher that sees the name change
	// mid-transfer can restart against the newer image.
	MsgCkptFetch
	// MsgPing is a liveness probe doubling as the connection handshake.
	// Request: empty. Response: u64 primary epoch, u8 health state. Clients
	// send it at dial time (learning the server's epoch before issuing
	// work) and periodically as a keepalive so half-open connections are
	// detected instead of hanging; servers answer it without consuming a
	// worker slot.
	MsgPing
	// MsgReplHeartbeat is pushed by the primary on an idle replication
	// stream (only ever with RespFlag set, like MsgReplBatch): payload u64
	// primary epoch, u64 durable offset. It proves primary liveness to the
	// replica's failure detector and elicits a MsgReplAck reply, keeping
	// both directions of the subscription inside their idle timeouts.
	MsgReplHeartbeat
	// Values 22–24 carried the retired server-side query frames (see
	// wire.golden); they stay reserved so later values keep their numbers,
	// and a server answers them StatusBadRequest like any unknown type.
	_
	_
	_
	// MsgShardPrepare is phase one of a cross-shard two-phase commit: the
	// coordinator asks a participant to make a named open transaction's
	// write set durable without committing it. Payload: u64 txn id, u64
	// observed primary epoch (same fence as MsgBegin — a deposed primary
	// must not ack a prepare), u64 shard-map version, gid (bytes), u32 op
	// count, then per op: u8 op code (MsgInsert/MsgUpdate/MsgDelete), table
	// name (bytes), key (bytes), value (bytes, empty for deletes). The
	// server writes a prepare record through its group committer, parks the
	// transaction — its locks stay held — and acks only once the record is
	// durable. Appended after the retired values 22–24 to keep existing
	// wire values stable.
	//
	// The payload ends with a list, possibly empty: u32 count, then per
	// entry gid (bytes), u8 decide flags. These are decisions this server
	// already acknowledged on apply (ShardDecideOnApply); it applies any
	// that a restart undid before it writes the prepare record, so the
	// prepare's durable ack covers them all and the router may forget them.
	MsgShardPrepare
	// MsgShardDecide delivers the coordinator's decision for a prepared
	// transaction: payload gid (bytes), u8 flags (ShardDecideCommit,
	// ShardDecideOnApply). The ack follows the decision's durability unless
	// ShardDecideOnApply asks for it earlier; unknown gids answer OK (once
	// the log is durable) so retries and presumed-abort cleanup are
	// idempotent.
	MsgShardDecide
	// MsgShardMap fetches the serving shard's identity: response u32 shard
	// id, u64 shard-map version, then the server's configured shard-map
	// blob (bytes, possibly empty). Routers use it at dial time to verify
	// they are talking to the shard the map says lives at this address.
	MsgShardMap
	// MsgShardPrepared lists the gids of this server's prepare records in
	// the byte range [lo, hi): payload lo (bytes), hi (bytes). Response: u32
	// count, that many gids (bytes) in order. From the first such request
	// on, the server also refuses to prepare any gid inside [lo, hi). A
	// coordinator that lost its memory lists, under its own id prefix and
	// below its first new sequence number, what it may have left prepared,
	// knowing nothing older can arrive afterwards.
	MsgShardPrepared
)

// MsgShardDecide flag bits.
const (
	// ShardDecideCommit marks a commit decision; clear means abort.
	ShardDecideCommit byte = 1 << 0
	// ShardDecideOnApply asks for the ack as soon as the decision is
	// applied in memory, before its log records are durable. The sender
	// stays responsible for the decision until a later durable ack from the
	// same server covers it (see MsgShardPrepare's decision list).
	ShardDecideOnApply byte = 1 << 1
)

// Begin request flag bits.
const (
	BeginReadOnly byte = 1 << 0
)

// Begin response flag bits.
const (
	// BeginEndUnawaited marks a read-only transaction whose Commit cannot
	// fail on this server (engine.ReadOnlyCommitter): its Commit and Abort
	// need no answer, so the client sends them without waiting for one.
	BeginEndUnawaited byte = 1 << 0
)

// ClientTxnBit is set in every transaction handle; a Begin naming a handle
// without it is refused. Handles are scoped to their connection: two
// connections may use the same one at the same time.
const ClientTxnBit uint64 = 1 << 63

// Checkpoint request flag bits.
const (
	// CkptTruncate asks the server to truncate sealed log segments below
	// the new checkpoint's begin offset after publishing it.
	CkptTruncate byte = 1 << 0
)

// Framing errors.
var (
	// ErrBadFrame reports a malformed frame: wrong magic, unknown version,
	// or CRC mismatch. The connection cannot be resynchronized and must be
	// closed.
	//
	//ermia:classify local a transport framing error below the transaction taxonomy; the connection dies, the client surfaces ErrConnLost
	ErrBadFrame = errors.New("proto: malformed frame")
	// ErrFrameTooLarge reports a frame whose declared payload exceeds
	// MaxPayload.
	//
	//ermia:classify local never crosses the wire: a reader that meets one drops the connection, and the client refuses an oversized request before queueing it, returning this unretryable error with the connection up
	ErrFrameTooLarge = errors.New("proto: frame too large")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrameD appends a complete frame to dst with a relative deadline
// budget (0 = none) and returns the extended slice.
//
//ermia:hotpath frame encoding runs once per message on every connection
func AppendFrameD(dst []byte, typ byte, reqID uint64, deadlineMillis uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, HeaderSize)...), payload...)
	return finishFrame(dst, start, typ, reqID, deadlineMillis)
}

// AppendResponse appends the frame AppendFrame makes of a response to typ:
// status, detail (empty unless StatusInternal), body. The payload is
// encoded in place, never assembled on its own.
//
//ermia:hotpath every server response is encoded here, in place, into its session's write buffer
func AppendResponse(dst []byte, typ byte, reqID uint64, st Status, detail string, body []byte) []byte {
	start := len(dst)
	dst = AppendStatus(append(dst, make([]byte, HeaderSize)...), st)
	dst = append(binary.AppendUvarint(dst, uint64(len(detail))), detail...)
	return finishFrame(append(dst, body...), start, typ|RespFlag, reqID, 0)
}

// finishFrame fills in the header reserved at dst[start:] and appends the
// CRC.
//
//ermia:hotpath frame encoding runs once per message on every connection
func finishFrame(dst []byte, start int, typ byte, reqID uint64, deadlineMillis uint32) []byte {
	h := dst[start : start+HeaderSize]
	binary.LittleEndian.PutUint16(h[0:], Magic)
	h[2] = Version
	h[3] = typ
	binary.LittleEndian.PutUint64(h[4:], reqID)
	binary.LittleEndian.PutUint32(h[12:], deadlineMillis)
	binary.LittleEndian.PutUint32(h[16:], uint32(len(dst)-start-HeaderSize))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// AppendFrame appends a complete frame with no deadline budget.
//
//ermia:hotpath frame encoding runs once per message on every connection
func AppendFrame(dst []byte, typ byte, reqID uint64, payload []byte) []byte {
	return AppendFrameD(dst, typ, reqID, 0, payload)
}

// WriteFrameD writes one frame with a relative deadline budget to w (callers
// typically pass a bufio.Writer and flush when the pipeline empties).
func WriteFrameD(w io.Writer, typ byte, reqID uint64, deadlineMillis uint32, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	buf := AppendFrameD(make([]byte, 0, HeaderSize+len(payload)+4), typ, reqID, deadlineMillis, payload)
	_, err := w.Write(buf)
	return err
}

// WriteFrame writes one frame with no deadline budget.
func WriteFrame(w io.Writer, typ byte, reqID uint64, payload []byte) error {
	return WriteFrameD(w, typ, reqID, 0, payload)
}

// ReadFrameD reads one complete frame from r, verifying magic, version, size
// bound, and CRC, and returns the sender's relative deadline budget in
// milliseconds (0 = none). The returned payload is freshly allocated.
func ReadFrameD(r io.Reader) (typ byte, reqID uint64, deadlineMillis uint32, payload []byte, err error) {
	var h [HeaderSize]byte
	if _, err = io.ReadFull(r, h[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	if binary.LittleEndian.Uint16(h[0:]) != Magic || h[2] != Version {
		return 0, 0, 0, nil, ErrBadFrame
	}
	typ = h[3]
	reqID = binary.LittleEndian.Uint64(h[4:])
	deadlineMillis = binary.LittleEndian.Uint32(h[12:])
	plen := binary.LittleEndian.Uint32(h[16:])
	if plen > MaxPayload {
		return 0, 0, 0, nil, ErrFrameTooLarge
	}
	rest := make([]byte, int(plen)+4)
	if _, err = io.ReadFull(r, rest); err != nil {
		// A truncated body is a framing violation, not a clean EOF.
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, nil, err
	}
	sum := crc32.Checksum(h[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, rest[:plen])
	if sum != binary.LittleEndian.Uint32(rest[plen:]) {
		return 0, 0, 0, nil, fmt.Errorf("%w: crc mismatch", ErrBadFrame)
	}
	return typ, reqID, deadlineMillis, rest[:plen:plen], nil
}

// ReadFrame reads one complete frame, discarding the deadline field.
func ReadFrame(r io.Reader) (typ byte, reqID uint64, payload []byte, err error) {
	typ, reqID, _, payload, err = ReadFrameD(r)
	return typ, reqID, payload, err
}

// ---- Payload encoding helpers ----

// AppendBytes appends a uvarint-length-prefixed byte string.
//
//ermia:hotpath payload encoding runs several times per message on every connection
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendU64 appends a fixed-width little-endian uint64.
//
//ermia:hotpath payload encoding runs several times per message on every connection
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendU32 appends a fixed-width little-endian uint32.
//
//ermia:hotpath payload encoding runs several times per message on every connection
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU16 appends a fixed-width little-endian uint16.
//
//ermia:hotpath payload encoding runs several times per message on every connection
func AppendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// AppendU8 appends one byte.
//
//ermia:hotpath payload encoding runs several times per message on every connection
func AppendU8(b []byte, v byte) []byte { return append(b, v) }

// Dec decodes a payload sequentially. Decoding errors are sticky: after the
// first short read every accessor returns zero values and Err reports
// ErrBadFrame, so message decoders can run straight-line and check once.
type Dec struct {
	b   []byte
	bad bool
}

// NewDec returns a decoder over p.
func NewDec(p []byte) *Dec { return &Dec{b: p} }

// Bytes decodes a uvarint-length-prefixed byte string (aliasing the input).
//
//ermia:hotpath payload decoding runs several times per message on every connection; accessors must alias, not copy
func (d *Dec) Bytes() []byte {
	if d.bad {
		return nil
	}
	n, used := binary.Uvarint(d.b)
	if used <= 0 || n > uint64(len(d.b)-used) {
		d.bad = true
		return nil
	}
	p := d.b[used : used+int(n) : used+int(n)]
	d.b = d.b[used+int(n):]
	return p
}

// U64 decodes a fixed-width uint64.
//
//ermia:hotpath payload decoding runs several times per message on every connection
func (d *Dec) U64() uint64 {
	if d.bad || len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// U32 decodes a fixed-width uint32.
//
//ermia:hotpath payload decoding runs several times per message on every connection
func (d *Dec) U32() uint32 {
	if d.bad || len(d.b) < 4 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

// U16 decodes a fixed-width uint16.
//
//ermia:hotpath payload decoding runs several times per message on every connection
func (d *Dec) U16() uint16 {
	if d.bad || len(d.b) < 2 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

// U8 decodes one byte.
//
//ermia:hotpath payload decoding runs several times per message on every connection
func (d *Dec) U8() byte {
	if d.bad || len(d.b) < 1 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Rest consumes and returns the undecoded remainder of the payload
// (aliasing the input). Used for messages that end in an opaque body with
// its own framing, like the replication batch.
//
//ermia:hotpath replication batch decoding hands off the remainder once per frame; aliasing keeps it copy-free
func (d *Dec) Rest() []byte {
	if d.bad {
		return nil
	}
	p := d.b
	d.b = nil
	return p
}

// Err reports whether decoding ran past the payload.
//
//ermia:hotpath checked once per decoded message; the happy path must not allocate
func (d *Dec) Err() error {
	if d.bad {
		return fmt.Errorf("%w: truncated payload", ErrBadFrame)
	}
	return nil
}
