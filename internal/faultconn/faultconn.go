// Package faultconn is the network analog of internal/faultfs: a
// deterministic, seeded fault-injecting transport implementing net.Conn and
// net.Listener. A Network is a set of named endpoints connected by directed
// links; every fault is configured per directed link and applies to all
// connections (and future dials) between the two endpoints:
//
//   - SetLatency: delivery delay with seeded jitter
//   - Blackhole: one-direction silent byte drop (half-open connections)
//   - Partition: stall — writes and dials block until Heal,
//     modeling a network partition with TCP retransmission (bytes written
//     before the partition still drain to the reader)
//   - Corrupt: seeded per-byte flip probability (exercises the frame CRC)
//   - CutAfter/Cut: abrupt connection reset after exactly N more bytes,
//     for deterministic mid-frame cuts
//   - Heal/HealAll: clear faults and wake every blocked operation
//
// Connections are in-memory buffered pipes with real net.Conn deadline
// semantics (Set{Read,Write,}Deadline unblock pending operations with
// os.ErrDeadlineExceeded, which satisfies net.Error with Timeout()==true),
// so production timeout code paths — server write timeouts, replica
// heartbeat read deadlines, client keepalives — fire exactly as they would
// on a real socket. Pipes have bounded capacity (Network.BufSize), so a
// reader that stops draining exerts real backpressure on the writer, which
// is how the slow-reader and write-timeout tests get determinism.
//
// Like faultfs, determinism is per seed: the same seed produces the same
// jitter and corruption stream per link. Goroutine interleaving stays
// OS-scheduled; the nemesis harness layers a seeded fault schedule on top.
// The file is marked deterministic to hold that line: every fault decision
// must derive from the seed, and the audited exceptions below are only
// order-insensitive broadcasts and real net.Conn deadline semantics.
//
//ermia:deterministic
package faultconn

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ermia/internal/xrand"
)

// Errors surfaced by injected faults. Both kill the connection, so the
// client layer maps them (like any transport error) to engine.ErrConnLost.
var (
	// ErrCut reports a connection severed by Cut/CutAfter — the moral
	// equivalent of a TCP RST mid-stream.
	ErrCut = errors.New("faultconn: connection cut by fault injection")
	// ErrRefused reports a dial to an endpoint with no listener.
	ErrRefused = errors.New("faultconn: connection refused")
)

// DefaultBufSize is the per-direction pipe capacity when Network.BufSize is
// zero: small enough that a stalled reader exerts backpressure quickly,
// large enough that a full pipelining window fits.
const DefaultBufSize = 256 << 10

// Addr names an endpoint on a fault network.
type Addr struct{ Name string }

func (a Addr) Network() string { return "fault" }
func (a Addr) String() string  { return a.Name }

type linkKey struct{ from, to string }

// link holds the fault state of one directed endpoint pair. Mutated only
// under Network.mu; conns cache the pointer, so Heal edits are visible to
// every blocked operation the moment it rechecks.
type link struct {
	stalled  bool
	drop     bool
	corrupt  float64
	latency  time.Duration
	jitter   time.Duration
	cutAfter int64 // pending byte countdown; -1 = disarmed
	rng      *xrand.Rand
}

// Network is a set of named endpoints with fault-injectable links. The zero
// value is not usable; construct with NewNetwork.
type Network struct {
	// BufSize is the per-direction pipe capacity for connections created
	// after it is set. Zero means DefaultBufSize.
	BufSize int

	mu        sync.Mutex
	dialers   *sync.Cond // parked partitioned dialers; broadcast on any change
	seed      uint64
	links     map[linkKey]*link
	listeners map[string]*listener
	conns     map[*Conn]struct{}
}

// NewNetwork returns an empty network whose per-link jitter and corruption
// streams derive deterministically from seed.
func NewNetwork(seed uint64) *Network {
	n := &Network{
		seed:      seed,
		links:     make(map[linkKey]*link),
		listeners: make(map[string]*listener),
		conns:     make(map[*Conn]struct{}),
	}
	n.dialers = sync.NewCond(&n.mu)
	return n
}

// getLink returns (creating on first use) the directed link from→to.
// Callers hold n.mu.
func (n *Network) getLink(from, to string) *link {
	k := linkKey{from, to}
	l := n.links[k]
	if l == nil {
		h := fnv.New64a()
		io.WriteString(h, from)
		io.WriteString(h, "\x00")
		io.WriteString(h, to)
		l = &link{cutAfter: -1, rng: xrand.New2(n.seed, h.Sum64())}
		n.links[k] = l
	}
	return l
}

// broadcast wakes every blocked Read/Write/Dial/Accept so it rechecks fault
// state. One network-wide wakeup keeps the locking trivial; the thundering
// herd is irrelevant at test scale.
func (n *Network) broadcast() {
	//ermia:allow nodeterminism wakes every conn; broadcast order is invisible to waiters
	for c := range n.conns {
		c.rd.cond.Broadcast()
		c.wr.cond.Broadcast()
	}
	//ermia:allow nodeterminism wakes every listener; broadcast order is invisible to waiters
	for _, l := range n.listeners {
		l.cond.Broadcast()
	}
	n.dialers.Broadcast()
}

// ---- Fault controls ----

// SetLatency delays delivery on the directed link from→to by d plus a
// seeded uniform jitter in [0, jitter).
func (n *Network) SetLatency(from, to string, d, jitter time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.getLink(from, to)
	l.latency, l.jitter = d, jitter
	n.broadcast()
}

// Blackhole silently discards all bytes written on the directed link
// from→to: the writer sees success, the reader sees nothing — a half-open
// connection until some timeout fires.
func (n *Network) Blackhole(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getLink(from, to).drop = true
	n.broadcast()
}

// Partition stalls both directions between a and b: writes block (bounded
// by write deadlines) and dials hang until Heal, like a drop-all firewall
// rule with TCP retransmission behind it.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getLink(a, b).stalled = true
	n.getLink(b, a).stalled = true
	n.broadcast()
}

// Isolate partitions name from every endpoint that has appeared on the
// network (listeners and both conn ends), both directions.
func (n *Network) Isolate(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	//ermia:allow nodeterminism stalls every link touching name; the set is the same in any order
	for other := range n.endpointsLocked() {
		if other == name {
			continue
		}
		n.getLink(name, other).stalled = true
		n.getLink(other, name).stalled = true
	}
	n.broadcast()
}

// endpointsLocked collects every endpoint name the network has seen.
func (n *Network) endpointsLocked() map[string]struct{} {
	eps := make(map[string]struct{})
	//ermia:allow nodeterminism set union; insertion order is invisible
	for name := range n.listeners {
		eps[name] = struct{}{}
	}
	//ermia:allow nodeterminism set union; insertion order is invisible
	for k := range n.links {
		eps[k.from] = struct{}{}
		eps[k.to] = struct{}{}
	}
	//ermia:allow nodeterminism set union; insertion order is invisible
	for c := range n.conns {
		eps[c.local.Name] = struct{}{}
		eps[c.remote.Name] = struct{}{}
	}
	return eps
}

// Corrupt flips each byte on the directed link from→to with probability
// rate, drawn from the link's seeded stream.
func (n *Network) Corrupt(from, to string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getLink(from, to).corrupt = rate
	n.broadcast()
}

// CutAfter arms a byte countdown on the directed link from→to: after
// exactly nbytes more bytes are written, every connection between the two
// endpoints is severed with ErrCut — a deterministic mid-frame cut when
// nbytes lands inside a frame.
func (n *Network) CutAfter(from, to string, nbytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getLink(from, to).cutAfter = nbytes
	n.broadcast()
}

// Cut immediately severs every connection between a and b with ErrCut.
// Unlike Partition, the connections are dead; redials succeed.
func (n *Network) Cut(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	//ermia:allow nodeterminism severs every matching conn; order is invisible once all are dead
	for c := range n.conns {
		if (c.local.Name == a && c.remote.Name == b) || (c.local.Name == b && c.remote.Name == a) {
			c.breakLocked(ErrCut)
		}
	}
	n.broadcast()
}

// Heal clears all faults on both directed links between a and b and wakes
// every blocked operation. Severed connections stay severed; stalled ones
// resume.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.healLinkLocked(linkKey{a, b})
	n.healLinkLocked(linkKey{b, a})
	n.broadcast()
}

// HealAll clears every fault on the network.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	//ermia:allow nodeterminism heals every link; order is invisible once all are clean
	for k := range n.links {
		n.healLinkLocked(k)
	}
	n.broadcast()
}

func (n *Network) healLinkLocked(k linkKey) {
	if l := n.links[k]; l != nil {
		l.stalled, l.drop, l.corrupt = false, false, 0
		l.latency, l.jitter = 0, 0
		l.cutAfter = -1
	}
}

// ---- Listener ----

type listener struct {
	n      *Network
	addr   Addr
	cond   *sync.Cond // on n.mu
	queue  []*Conn
	closed bool
}

// Listen registers an endpoint accepting connections under name. One
// listener per name; a second Listen on a live name fails like a bound
// port.
func (n *Network) Listen(name string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listeners[name] != nil {
		return nil, fmt.Errorf("faultconn: endpoint %q already listening", name)
	}
	l := &listener{n: n, addr: Addr{name}, cond: sync.NewCond(&n.mu)}
	n.listeners[name] = l
	return l, nil
}

func (l *listener) Accept() (net.Conn, error) {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	for {
		if l.closed {
			return nil, net.ErrClosed
		}
		if len(l.queue) > 0 {
			c := l.queue[0]
			l.queue = l.queue[1:]
			return c, nil
		}
		l.cond.Wait()
	}
}

func (l *listener) Close() error {
	l.n.mu.Lock()
	defer l.n.mu.Unlock()
	if !l.closed {
		l.closed = true
		delete(l.n.listeners, l.addr.Name)
		l.cond.Broadcast()
	}
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// ---- Dial ----

// Dial connects from→to with no timeout bound beyond partitions healing.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	return n.DialTimeout(from, to, 0)
}

// DialTimeout connects the named endpoints. A stalled or blackholed link in
// either direction makes the dial wait (SYN or SYN-ACK lost) until heal or
// timeout; timeout errors wrap os.ErrDeadlineExceeded so they satisfy
// net.Error with Timeout()==true. Dialing a name with no listener fails
// with ErrRefused.
func (n *Network) DialTimeout(from, to string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout) //ermia:allow nodeterminism real net.Conn dial-timeout semantics; wall time by contract
	}
	fwd, rev := n.getLink(from, to), n.getLink(to, from)
	for fwd.stalled || fwd.drop || rev.stalled || rev.drop {
		if !waitCondDeadline(deadline, n.dialers) {
			return nil, fmt.Errorf("faultconn: dial %s->%s: %w", from, to, os.ErrDeadlineExceeded)
		}
	}
	ls := n.listeners[to]
	if ls == nil || ls.closed {
		return nil, fmt.Errorf("faultconn: dial %s->%s: %w", from, to, ErrRefused)
	}
	bufSize := n.BufSize
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	a2b := newPipe(&n.mu, bufSize, fwd) // from writes, to reads
	b2a := newPipe(&n.mu, bufSize, rev)
	client := &Conn{n: n, local: Addr{from}, remote: Addr{to}, rd: b2a, wr: a2b, wlink: fwd}
	server := &Conn{n: n, local: Addr{to}, remote: Addr{from}, rd: a2b, wr: b2a, wlink: rev}
	client.peer, server.peer = server, client
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	ls.queue = append(ls.queue, server)
	ls.cond.Broadcast()
	return client, nil
}

// waitCondDeadline waits on c until a broadcast or the deadline (zero =
// none); returns false once the deadline has passed. Callers hold the mutex
// c is built on. The timer broadcasts rather than signals so it cannot
// steal another waiter's wakeup.
func waitCondDeadline(deadline time.Time, c *sync.Cond) bool {
	if !deadline.IsZero() && !time.Now().Before(deadline) { //ermia:allow nodeterminism real net.Conn deadline semantics; wall time by contract
		return false
	}
	var timer *time.Timer
	if !deadline.IsZero() {
		timer = time.AfterFunc(time.Until(deadline), c.Broadcast) //ermia:allow nodeterminism real net.Conn deadline semantics; wall time by contract
	}
	c.Wait()
	if timer != nil {
		timer.Stop()
	}
	return true
}
