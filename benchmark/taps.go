package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/wal"
)

// storageTap is decorator (3): a wal.Storage that counts and times the
// WriteAt and Sync calls the log manager makes on its segment files.
type storageTap struct {
	wal.Storage
	writes     atomic.Uint64
	writeBytes atomic.Uint64
	writeNs    atomic.Uint64
	syncs      atomic.Uint64

	mu     sync.Mutex
	on     bool // sync latencies are kept for the measured window only
	syncNs Hist
}

type storageCounts struct{ writes, writeBytes, writeNs, syncs uint64 }

func (s *storageTap) counts() storageCounts {
	return storageCounts{s.writes.Load(), s.writeBytes.Load(), s.writeNs.Load(), s.syncs.Load()}
}

func (c storageCounts) sub(o storageCounts) storageCounts {
	return storageCounts{c.writes - o.writes, c.writeBytes - o.writeBytes, c.writeNs - o.writeNs, c.syncs - o.syncs}
}

func (c storageCounts) add(o storageCounts) storageCounts {
	return storageCounts{c.writes + o.writes, c.writeBytes + o.writeBytes, c.writeNs + o.writeNs, c.syncs + o.syncs}
}

func (s *storageTap) setOn(on bool) {
	s.mu.Lock()
	s.on = on
	s.mu.Unlock()
}

func (s *storageTap) Create(name string) (wal.File, error) {
	f, err := s.Storage.Create(name)
	if err != nil {
		return nil, err
	}
	return &fileTap{File: f, s: s}, nil
}

func (s *storageTap) Open(name string) (wal.File, error) {
	f, err := s.Storage.Open(name)
	if err != nil {
		return nil, err
	}
	return &fileTap{File: f, s: s}, nil
}

type fileTap struct {
	wal.File
	s *storageTap
}

func (f *fileTap) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.s.writeNs.Add(uint64(time.Since(t0)))
	f.s.writes.Add(1)
	f.s.writeBytes.Add(uint64(n))
	return n, err
}

func (f *fileTap) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.s.syncs.Add(1)
	f.s.mu.Lock()
	if f.s.on {
		f.s.syncNs.Record(int64(d))
	}
	f.s.mu.Unlock()
	return err
}

// netTap is decorator (4): byte and call counts on every connection of one
// side (the client's dialer, or a server's listener).
type netTap struct {
	readBytes, writeBytes, writes atomic.Uint64
}

type netCounts struct{ readBytes, writeBytes, writes uint64 }

func (t *netTap) counts() netCounts {
	return netCounts{t.readBytes.Load(), t.writeBytes.Load(), t.writes.Load()}
}

func (c netCounts) sub(o netCounts) netCounts {
	return netCounts{c.readBytes - o.readBytes, c.writeBytes - o.writeBytes, c.writes - o.writes}
}

type connTap struct {
	net.Conn
	t *netTap
}

func (c *connTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.readBytes.Add(uint64(n))
	return n, err
}

func (c *connTap) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.t.writeBytes.Add(uint64(n))
	c.t.writes.Add(1)
	return n, err
}

// dial is a client.Options.Dial / shard.Options.Dial hook.
func (t *netTap) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &connTap{Conn: nc, t: t}, nil
}

type listenerTap struct {
	net.Listener
	t *netTap
}

func (l *listenerTap) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connTap{Conn: nc, t: l.t}, nil
}
