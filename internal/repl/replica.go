package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/proto"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// ErrPromoted reports an operation on a replica that has already been
// promoted to primary.
var ErrPromoted = errors.New("repl: replica already promoted")

// ErrStreamFatal wraps a primary-reported stream failure the replica cannot
// recover from by reconnecting: the suffix it needs was truncated away, or
// the primary found its own log corrupt. The replica must be re-seeded from
// a fresh copy of the primary's log.
var ErrStreamFatal = errors.New("repl: replication stream failed fatally")

// Config configures a replica.
type Config struct {
	// PrimaryAddr is the primary server's host:port. Required.
	PrimaryAddr string
	// Core configures the replica engine. Core.WAL.Storage is the local
	// mirror of the primary's log — existing contents are recovered before
	// streaming resumes, and promotion opens the post-promotion log over
	// it. Defaults to a fresh MemStorage (testing only: a real replica
	// wants a durable directory).
	Core core.Config
	// DialTimeout bounds each connection attempt. Default 5s.
	DialTimeout time.Duration
	// Dial, when set, replaces net.DialTimeout for both the stream and
	// checkpoint-fetch connections — the seam for the fault-injecting
	// transport. Nil uses TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Retry shapes the pause before redialing after a transport failure:
	// consecutive failures back off exponentially with jitter (a successful
	// subscribe resets the streak). A zero BaseDelay gets base 100ms, cap
	// 2s, jitter 0.5. Set Retry.Seed for deterministic backoff in tests.
	Retry engine.RetryPolicy
	// HeartbeatTimeout, when positive, bounds the silence the replica
	// tolerates on an established stream before declaring the connection
	// dead and redialing. Pair it with the primary's ReplHeartbeat (set the
	// timeout to several heartbeat intervals) so a quiet-but-alive primary
	// is never mistaken for a dead one. Zero waits forever.
	HeartbeatTimeout time.Duration
	// GCEveryBlocks runs a version-GC round from the applier goroutine
	// after this many applied blocks (background GC would race the
	// applier; see core.OpenReplica). Default 4096.
	GCEveryBlocks int
}

// Stats is a snapshot of a replica's streaming progress.
type Stats struct {
	Watermark      uint64 // offset just past the last fully applied block
	PrimaryDurable uint64 // primary durable horizon from the newest batch
	Lag            uint64 // PrimaryDurable - Watermark (0 when caught up)
	Batches        uint64 // batches applied
	Blocks         uint64 // blocks applied
	Bytes          uint64 // block bytes mirrored

	Seeds     uint64 // checkpoint seeds performed (bootstrap + truncation re-seeds)
	SeedBytes uint64 // checkpoint image bytes fetched across all seeds
}

// Replica is a running replica: a goroutine that streams the primary's log
// into a local mirror and replays it into a read-only core.DB.
type Replica struct {
	cfg Config
	db  *core.DB
	ap  *core.Applier

	segs  map[string]wal.SegmentMeta // mirrored segments by file name
	files map[string]wal.File        // open mirror segment files

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	connMu sync.Mutex
	conn   net.Conn

	errMu  sync.Mutex
	runErr error

	promoted       atomic.Bool
	primaryDurable atomic.Uint64
	// epoch is the highest primary epoch this replica has observed, loaded
	// from and persisted to the mirror storage. A stream stamped below it
	// comes from a deposed primary and is refused — the fence that keeps a
	// healed old primary from feeding a promoted replica stale bytes.
	epoch atomic.Uint64
	// lastHeard is the wall-clock nanos of the last frame received from the
	// primary (any frame: batch, heartbeat, subscribe ack). The liveness
	// supervisor promotes on prolonged silence.
	lastHeard atomic.Int64
	// streamedOK notes that the current connection subscribed successfully,
	// resetting the reconnect backoff streak.
	streamedOK atomic.Bool
	batches    atomic.Uint64
	blocks     atomic.Uint64
	bytes      atomic.Uint64
	seeds      atomic.Uint64
	seedBytes  atomic.Uint64
	sinceGC    int

	// subPos is the log offset the next subscription resumes from: the end
	// of the mirrored suffix. It is decoupled from the watermark, which a
	// checkpoint seed can push far past the mirror — the stream still has
	// to mirror the gap's segments (from the seed's segment-start offset)
	// so the local log is byte-complete for promotion and restart.
	// needSeed asks the run loop to bootstrap or re-seed from the primary's
	// newest checkpoint before (re)subscribing. Both are owned by the run
	// goroutine.
	subPos   uint64
	needSeed bool
}

// Start recovers whatever the mirror already holds, then begins streaming
// from the primary. The returned Replica's DB serves read-only snapshot
// transactions immediately.
func Start(cfg Config) (*Replica, error) {
	if cfg.PrimaryAddr == "" {
		return nil, fmt.Errorf("repl: Config.PrimaryAddr is required")
	}
	if cfg.Core.WAL.Storage == nil {
		cfg.Core.WAL.Storage = wal.NewMemStorage()
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.GCEveryBlocks <= 0 {
		cfg.GCEveryBlocks = 4096
	}
	if cfg.Retry.BaseDelay <= 0 {
		cfg.Retry.BaseDelay = 100 * time.Millisecond
		cfg.Retry.MaxDelay = 2 * time.Second
		cfg.Retry.Jitter = 0.5
	}
	db, ap, pass1, err := core.OpenReplica(cfg.Core)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:   cfg,
		db:    db,
		ap:    ap,
		segs:  make(map[string]wal.SegmentMeta),
		files: make(map[string]wal.File),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, sm := range pass1.Segments {
		r.segs[sm.Name] = sm
	}
	ep, err := LoadEpoch(cfg.Core.WAL.Storage)
	if err != nil {
		db.Close()
		return nil, err
	}
	r.epoch.Store(ep)
	r.lastHeard.Store(time.Now().UnixNano())
	// An empty mirror tries a snapshot seed first: fetching the primary's
	// newest checkpoint and subscribing from its begin segment reads far
	// fewer bytes than mirroring the log from its start. A primary without
	// a checkpoint falls back to mirroring from the start transparently. A
	// restarting replica that already holds a seeded checkpoint (but maybe
	// no segments yet) skips the download: if its position is stale the
	// stream comes back with ErrTailTruncated and the re-seed fetches
	// metadata only.
	r.subPos = pass1.NextOffset
	_, hasCkpt := db.LastCheckpoint()
	r.needSeed = len(pass1.Segments) == 0 && !hasCkpt
	go r.run()
	return r, nil
}

// DB returns the replica engine. Reads work; writes fail with
// engine.ErrReplicaReadOnly until promotion.
func (r *Replica) DB() *core.DB { return r.db }

// Watermark returns the replay watermark.
func (r *Replica) Watermark() uint64 { return r.db.Watermark() }

// Stats snapshots streaming progress.
func (r *Replica) Stats() Stats {
	s := Stats{
		Watermark:      r.db.Watermark(),
		PrimaryDurable: r.primaryDurable.Load(),
		Batches:        r.batches.Load(),
		Blocks:         r.blocks.Load(),
		Bytes:          r.bytes.Load(),
		Seeds:          r.seeds.Load(),
		SeedBytes:      r.seedBytes.Load(),
	}
	if s.PrimaryDurable > s.Watermark {
		s.Lag = s.PrimaryDurable - s.Watermark
	}
	return s
}

// Epoch returns the highest primary epoch this replica has observed.
func (r *Replica) Epoch() uint64 { return r.epoch.Load() }

// LastHeard returns how long ago the last frame arrived from the primary.
func (r *Replica) LastHeard() time.Duration {
	return time.Since(time.Unix(0, r.lastHeard.Load()))
}

// heard stamps primary liveness; called on every received frame.
func (r *Replica) heard() { r.lastHeard.Store(time.Now().UnixNano()) }

// noteEpoch folds a stream-carried epoch into the replica's view. A higher
// epoch is persisted before it is adopted (the fence must survive restart);
// a lower one reports the stream as coming from a deposed primary.
func (r *Replica) noteEpoch(e uint64) error {
	cur := r.epoch.Load()
	if e < cur {
		return fmt.Errorf("%w: stream epoch %d below replica epoch %d (deposed primary)",
			ErrStreamFatal, e, cur)
	}
	if e > cur {
		if err := SaveEpoch(r.cfg.Core.WAL.Storage, e); err != nil {
			return fmt.Errorf("%w: %v", ErrStreamFatal, err)
		}
		r.epoch.Store(e)
	}
	return nil
}

// dial opens a connection to the primary through the configured transport.
func (r *Replica) dial() (net.Conn, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial(r.cfg.PrimaryAddr, r.cfg.DialTimeout)
	}
	return net.DialTimeout("tcp", r.cfg.PrimaryAddr, r.cfg.DialTimeout)
}

// Err returns the error that stopped the streaming loop, if any.
func (r *Replica) Err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.runErr
}

func (r *Replica) setErr(err error) {
	r.errMu.Lock()
	if r.runErr == nil {
		r.runErr = err
	}
	r.errMu.Unlock()
}

func (r *Replica) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// seal stops the streaming loop and waits for it to exit.
func (r *Replica) seal() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.closeConn()
	<-r.done
}

// setConn publishes the live connection so seal can cut it. seal closes stop
// before it takes connMu, so a connection dialed while seal ran — too late
// for seal's closeConn to see — finds stop closed here and is cut at once
// instead of parking its reader forever.
func (r *Replica) setConn(c net.Conn) {
	r.connMu.Lock()
	r.conn = c
	if r.stopped() {
		c.Close()
	}
	r.connMu.Unlock()
}

func (r *Replica) closeConn() {
	r.connMu.Lock()
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.connMu.Unlock()
}

func (r *Replica) closeFiles() {
	for name, f := range r.files {
		f.Close()
		delete(r.files, name)
	}
}

// run is the streaming loop: one stream() per connection lifetime,
// reconnecting on transport failures, re-seeding from the primary's newest
// checkpoint when its position falls below the truncation horizon, stopping
// on seal or a fatal stream error.
func (r *Replica) run() {
	defer close(r.done)
	// Reconnect backoff: consecutive transport failures sleep under the
	// retry policy (exponential + jitter); a successful subscribe resets
	// the streak. The jitter stream is seeded from the policy so chaos
	// tests replay identically.
	seed := r.cfg.Retry.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	rng := xrand.New(seed)
	fails := 0
	backoff := func() bool {
		fails++
		select {
		case <-r.stop:
			return false
		case <-time.After(r.cfg.Retry.Backoff(fails, rng)):
			return true
		}
	}
	for {
		if r.stopped() {
			return
		}
		if r.needSeed {
			if err := r.seed(); err != nil {
				if errors.Is(err, engine.ErrNoCheckpoint) {
					// The primary has never checkpointed: mirror its log
					// from the current position instead.
					r.needSeed = false
				} else if r.stopped() {
					return
				} else {
					// Transport failure or torn image: back off, refetch.
					if !backoff() {
						return
					}
					continue
				}
			}
		}
		r.streamedOK.Store(false)
		err := r.stream()
		if r.streamedOK.Load() {
			fails = 0
		}
		if r.stopped() {
			return
		}
		if errors.Is(err, wal.ErrTailTruncated) {
			// The primary truncated the suffix this replica still needs —
			// not fatal: re-seed from its newest checkpoint, which by the
			// truncation invariant covers everything the freed segments
			// held, and resubscribe above the horizon.
			r.needSeed = true
			continue
		}
		if errors.Is(err, ErrStreamFatal) {
			r.setErr(err)
			return
		}
		// Transport failure (dial refused, conn reset, torn batch): back
		// off and resubscribe from the mirrored position.
		if !backoff() {
			return
		}
	}
}

// seed bootstraps (or re-seeds) the replica from the primary's newest
// checkpoint: fetch the image, drop mirrored segments below the new
// subscribe position, load and persist the image, and resume the stream
// from the start of the live segment holding the checkpoint's floor — so
// every mirrored segment file is byte-complete from its first block.
// Runs on the run goroutine between streams, which satisfies
// SeedCheckpoint's quiesced-applier contract.
func (r *Replica) seed() error {
	var have string
	if ci, ok := r.db.LastCheckpoint(); ok {
		have = ci.Name
	}
	meta, image, err := r.fetchCheckpoint(have)
	if err != nil {
		return err
	}
	// Stale mirror below the new subscribe position: the primary no longer
	// serves those bytes and the seeded image covers their state. Newest
	// first, so a crash part-way leaves a gap-free prefix for recovery.
	st := r.cfg.Core.WAL.Storage
	var stale []wal.SegmentMeta
	for _, sm := range r.segs {
		if sm.End <= meta.Start {
			stale = append(stale, sm)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Start > stale[j].Start })
	for _, sm := range stale {
		if f, ok := r.files[sm.Name]; ok {
			f.Close()
			delete(r.files, sm.Name)
		}
		st.Remove(sm.Name)
		delete(r.segs, sm.Name)
	}
	if image != nil {
		begin, err := r.db.SeedCheckpoint(image)
		if err != nil {
			return fmt.Errorf("repl: seed checkpoint %s: %w", meta.Name, err)
		}
		r.ap.SetCheckpoint(begin)
		r.seedBytes.Add(uint64(len(image)))
	} else {
		// The primary still serves the checkpoint this replica already
		// loaded (a restart before catch-up): only the stream position
		// needs resetting.
		r.ap.SetCheckpoint(meta.Begin)
		r.db.PublishWatermark(meta.Begin)
	}
	r.subPos = meta.Start
	r.needSeed = false
	r.seeds.Add(1)
	return nil
}

// fetchCheckpoint downloads the primary's newest checkpoint image chunk by
// chunk on its own connection. If the primary's newest checkpoint is the
// one named have, only the metadata is fetched and a nil image is returned.
// A checkpoint replaced mid-transfer restarts the download against the
// newer image.
func (r *Replica) fetchCheckpoint(have string) (engine.CheckpointChunk, []byte, error) {
	fail := func(err error) (engine.CheckpointChunk, []byte, error) {
		return engine.CheckpointChunk{}, nil, err
	}
	conn, err := r.dial()
	if err != nil {
		return fail(err)
	}
	r.setConn(conn)
	defer r.closeConn()
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	var meta engine.CheckpointChunk
	var image []byte
	for reqID := uint64(1); ; reqID++ {
		if err := proto.WriteFrame(bw, proto.MsgCkptFetch, reqID, proto.AppendU64(nil, uint64(len(image)))); err != nil {
			return fail(err)
		}
		if err := bw.Flush(); err != nil {
			return fail(err)
		}
		typ, _, payload, err := proto.ReadFrame(br)
		if err != nil {
			return fail(err)
		}
		if typ != proto.MsgCkptFetch|proto.RespFlag {
			return fail(proto.ErrBadFrame)
		}
		d := proto.NewDec(payload)
		st := d.Status()
		detail := string(d.Bytes())
		if d.Err() != nil {
			return fail(proto.ErrBadFrame)
		}
		if st != proto.StatusOK {
			return fail(st.Err(detail))
		}
		ck := engine.CheckpointChunk{Name: string(d.Bytes())}
		ck.Gen = d.U64()
		ck.Begin = d.U64()
		ck.Start = d.U64()
		ck.Total = d.U64()
		ck.Data = d.Bytes()
		if d.Err() != nil {
			return fail(proto.ErrBadFrame)
		}
		if ck.Name == have {
			ck.Data = nil
			return ck, nil, nil
		}
		if meta.Name != "" && ck.Name != meta.Name {
			meta, image = engine.CheckpointChunk{}, image[:0]
			continue
		}
		meta = ck
		image = append(image, ck.Data...)
		if uint64(len(image)) >= ck.Total {
			meta.Data = nil
			return meta, image, nil
		}
		if len(ck.Data) == 0 {
			return fail(fmt.Errorf("repl: checkpoint fetch stalled at %d/%d bytes", len(image), ck.Total))
		}
	}
}

// stream runs one connection: subscribe from the watermark, then mirror,
// apply, and ack batches until the connection dies or the replica is
// sealed.
func (r *Replica) stream() error {
	conn, err := r.dial()
	if err != nil {
		return err
	}
	r.setConn(conn)
	defer r.closeConn()
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)

	const subID = 1
	nextID := uint64(subID + 1)
	if err := proto.WriteFrame(bw, proto.MsgReplSubscribe, subID, proto.AppendU64(nil, r.subPos)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// ack sends a progress/liveness acknowledgment carrying the watermark.
	ack := func() error {
		if err := proto.WriteFrame(bw, proto.MsgReplAck, nextID, proto.AppendU64(nil, r.db.Watermark())); err != nil {
			return err
		}
		nextID++
		return bw.Flush()
	}
	subscribed := false
	for {
		// Failure detection by silence: a healthy primary sends batches or
		// heartbeats; a read deadline passing with neither means the
		// primary (or the path to it) is gone, and the conn is redialed.
		if r.cfg.HeartbeatTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(r.cfg.HeartbeatTimeout))
		}
		typ, _, payload, err := proto.ReadFrame(br)
		if err != nil {
			return err
		}
		r.heard()
		switch typ {
		case proto.MsgReplSubscribe | proto.RespFlag:
			d := proto.NewDec(payload)
			st := d.Status()
			detail := string(d.Bytes())
			if d.Err() != nil {
				return proto.ErrBadFrame
			}
			if st != proto.StatusOK {
				if serr := st.Err(detail); errors.Is(serr, wal.ErrTailTruncated) {
					// Our resume position fell below the primary's
					// truncation horizon; re-seed, don't die.
					return fmt.Errorf("repl: subscribe position truncated away: %w", serr)
				}
				// The peer is not a primary (a replica, or a server without
				// a log): reconnecting to the same address cannot help.
				return fmt.Errorf("%w: subscribe refused: %v", ErrStreamFatal, st.Err(detail))
			}
			subscribed = true
			r.streamedOK.Store(true)
		case proto.MsgReplBatch | proto.RespFlag:
			if !subscribed {
				return proto.ErrBadFrame
			}
			d := proto.NewDec(payload)
			st := d.Status()
			detail := string(d.Bytes())
			if d.Err() != nil {
				return proto.ErrBadFrame
			}
			if st != proto.StatusOK {
				if serr := st.Err(detail); errors.Is(serr, wal.ErrTailTruncated) {
					// The primary truncated the suffix this stream was
					// positioned in (a checkpoint raced our subscription);
					// re-seed from that checkpoint instead of dying.
					return fmt.Errorf("repl: stream position truncated away: %w", serr)
				}
				// The primary's tail failed otherwise — its log is corrupt;
				// this replica cannot continue from its position.
				return fmt.Errorf("%w: %v", ErrStreamFatal, st.Err(detail))
			}
			batch, err := proto.DecodeReplBatch(d.Rest())
			if err != nil {
				return err // torn batch: drop the connection and resync
			}
			if err := r.noteEpoch(batch.Epoch); err != nil {
				return err
			}
			if err := r.applyBatch(batch); err != nil {
				return fmt.Errorf("%w: %v", ErrStreamFatal, err)
			}
			if err := ack(); err != nil {
				return err
			}
		case proto.MsgReplHeartbeat | proto.RespFlag:
			if !subscribed {
				return proto.ErrBadFrame
			}
			d := proto.NewDec(payload)
			st := d.Status()
			d.Bytes() // detail, unused
			ep := d.U64()
			durable := d.U64()
			if d.Err() != nil || st != proto.StatusOK {
				return proto.ErrBadFrame
			}
			if err := r.noteEpoch(ep); err != nil {
				return err
			}
			r.primaryDurable.Store(durable)
			// Answer with an ack so the primary's idle reaper sees us live.
			if err := ack(); err != nil {
				return err
			}
		case proto.MsgReplAck | proto.RespFlag:
			// Progress acknowledgments need no reply handling.
		default:
			return proto.ErrBadFrame
		}
	}
}

// mirrorFile returns the open mirror file for a segment, opening an
// existing file or creating a fresh one.
func (r *Replica) mirrorFile(sm wal.SegmentMeta) (wal.File, error) {
	if f, ok := r.files[sm.Name]; ok {
		return f, nil
	}
	st := r.cfg.Core.WAL.Storage
	f, err := st.Open(sm.Name)
	if err != nil {
		if f, err = st.Create(sm.Name); err != nil {
			return nil, fmt.Errorf("repl: mirror segment %s: %w", sm.Name, err)
		}
	}
	r.files[sm.Name] = f
	return f, nil
}

// applyBatch is the whole-batch pipeline: extend the segment map, mirror
// every block to the local segment files, sync them, then replay the
// blocks in order, advancing the watermark past each block only after it
// is fully applied. The batch was already validated as a unit (frame CRC
// plus batch CRC), so nothing here can tear mid-batch short of a crash —
// and a crash re-runs recovery over the mirror, which re-derives exactly
// the applied state. Mirror files of segments the stream has passed are
// closed at the end, so open files stay bounded by one batch's segments.
func (r *Replica) applyBatch(b *proto.ReplBatch) error {
	segs := make([]wal.SegmentMeta, len(b.Segments))
	for i, s := range b.Segments {
		sm := wal.NewSegmentMeta(int(s.Num), s.Start, s.End)
		segs[i] = sm
		if _, ok := r.segs[sm.Name]; !ok {
			r.segs[sm.Name] = sm
			r.ap.AddSegment(sm)
		}
	}
	// Mirror: header+payload at the block's offset reproduces the
	// primary's segment bytes (padding stays unwritten, as the primary's
	// flusher may leave it). Every block lives in a segment of its own
	// batch: the Tail ships each segment with its blocks.
	at := make([]wal.SegmentMeta, len(b.Blocks))
	var buf []byte
	for i := range b.Blocks {
		blk := &b.Blocks[i]
		j := slices.IndexFunc(segs, func(sm wal.SegmentMeta) bool { return blk.Off >= sm.Start && blk.Off < sm.End })
		if j < 0 {
			return fmt.Errorf("repl: block at %#x maps to no shipped segment", blk.Off)
		}
		sm := segs[j]
		if blk.Off+uint64(blk.Size) > sm.End {
			return fmt.Errorf("repl: block at %#x overruns segment %s", blk.Off, sm.Name)
		}
		f, err := r.mirrorFile(sm)
		if err != nil {
			return err
		}
		buf = wal.AppendBlock(buf[:0], blk.Type, blk.Off, uint64(blk.Size), blk.Prev, blk.Payload)
		if _, err := f.WriteAt(buf, int64(blk.Off-sm.Start)); err != nil {
			return fmt.Errorf("repl: mirror write %s: %w", sm.Name, err)
		}
		at[i] = sm
	}
	// Open files are this batch's segments and the one the stream was in.
	for name, f := range r.files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("repl: mirror sync %s: %w", name, err)
		}
	}

	// Replay. Overflow chains resolve through the mirror (shipped in order
	// before their commit block), so the applier needs nothing beyond the
	// local files.
	for i := range b.Blocks {
		blk := &b.Blocks[i]
		err := r.ap.Apply(wal.Block{
			LSN:     wal.MakeLSN(blk.Off, at[i].Num),
			Type:    blk.Type,
			Size:    uint64(blk.Size),
			Prev:    blk.Prev,
			Payload: blk.Payload,
		})
		if err != nil {
			return err
		}
		r.subPos = blk.Off + uint64(blk.Size)
		r.db.PublishWatermark(r.subPos)
		r.blocks.Add(1)
		r.bytes.Add(uint64(blk.Size))
		if r.sinceGC++; r.sinceGC >= r.cfg.GCEveryBlocks {
			// GC runs only here, on the applier goroutine, so a round can
			// never race an install (see core.Applier). It drains what the
			// applier queued: one entry per version installed over another.
			r.db.RunGC()
			r.sinceGC = 0
		}
	}
	for name, f := range r.files {
		if r.segs[name].End <= r.subPos {
			f.Close()
			delete(r.files, name)
		}
	}
	r.primaryDurable.Store(b.Durable)
	r.batches.Add(1)
	return nil
}

// Promote turns the replica into a primary: seal the stream, drain the
// applier, replay the mirror past the watermark, open a real log manager
// over the mirror, and flip the engine to Healthy. After Promote returns the
// DB accepts writes and the mirror is its live log.
func (r *Replica) Promote() error {
	if !r.promoted.CompareAndSwap(false, true) {
		return ErrPromoted
	}
	r.seal()
	r.closeFiles()

	// Recovery tail: everything mirrored but not yet applied. Batches apply
	// atomically, so the scan from the watermark usually finds nothing; it
	// also yields the offset the log resumes at.
	pass, err := wal.Recover(r.cfg.Core.WAL.Storage, r.db.Watermark(), r.ap.Apply)
	r.ap.Close()
	if err != nil {
		return fmt.Errorf("repl: promote replay: %w", err)
	}
	log, err := wal.Open(r.cfg.Core.WAL, pass)
	if err != nil {
		return fmt.Errorf("repl: promote log open: %w", err)
	}
	if err := r.db.Promote(log); err != nil {
		log.Close()
		return err
	}
	r.db.PublishWatermark(pass.NextOffset)
	// Claim the next primary epoch and persist it before serving: anything
	// the deposed primary later streams or acks under the old epoch is
	// provably stale. Serve the promoted DB under Epoch() (server.Config.
	// Epoch), so clients and replicas that saw the new epoch fence the old
	// primary out.
	next := r.epoch.Load() + 1
	if err := SaveEpoch(r.cfg.Core.WAL.Storage, next); err != nil {
		return fmt.Errorf("repl: promote epoch persist: %w", err)
	}
	r.epoch.Store(next)
	return nil
}

// Close stops streaming and shuts the engine down. After a successful
// Promote, Close only closes the (now primary) engine.
func (r *Replica) Close() error {
	r.seal()
	if !r.promoted.Load() {
		r.ap.Close()
	}
	r.closeFiles()
	return r.db.Close()
}
