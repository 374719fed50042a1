package faultfs

import (
	"sync"
	"sync/atomic"
	"time"

	"ermia/internal/wal"
)

// SyncGate decorates a Storage so that a test or benchmark owns the timing
// of its syncs: every File.Sync is counted, occupies a modelled device for a
// fixed delay, blocks while the gate is held, and fails once it is killed.
// Holding the gate freezes the durable image — what a MemStorage.Crash of
// the inner storage returns — while the engine above keeps running, which is
// how a test places a crash between a write and the sync that would have
// covered it. Killing it is the crash itself: no sync completes afterwards,
// so nothing the engine acknowledges from then on can claim a durability the
// image taken next does not have.
type SyncGate struct {
	inner wal.Storage
	delay time.Duration
	syncs atomic.Int64

	// mu is held shared across a sync, exclusively to change state, so Kill
	// returns only once every sync that will ever succeed has.
	mu     sync.RWMutex
	held   chan struct{} // non-nil while held; closed by Release and Kill
	killed bool
}

// NewSyncGate wraps inner; each sync takes delay (zero for none).
func NewSyncGate(inner wal.Storage, delay time.Duration) *SyncGate {
	return &SyncGate{inner: inner, delay: delay}
}

// Syncs returns how many syncs have completed.
func (g *SyncGate) Syncs() int64 { return g.syncs.Load() }

// Hold makes every sync from now on block until Release (or Kill).
func (g *SyncGate) Hold() {
	g.mu.Lock()
	if g.held == nil && !g.killed {
		g.held = make(chan struct{})
	}
	g.mu.Unlock()
}

// Release lets held and future syncs through.
func (g *SyncGate) Release() {
	g.mu.Lock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

// Kill fails every sync from now on, held ones included, with ErrCrashed.
func (g *SyncGate) Kill() {
	g.mu.Lock()
	g.killed = true
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
	g.mu.Unlock()
}

// Create implements wal.Storage.
func (g *SyncGate) Create(name string) (wal.File, error) {
	f, err := g.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

// Open implements wal.Storage.
func (g *SyncGate) Open(name string) (wal.File, error) {
	f, err := g.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, g: g}, nil
}

// List implements wal.Storage.
func (g *SyncGate) List() ([]string, error) { return g.inner.List() }

// Remove implements wal.Storage.
func (g *SyncGate) Remove(name string) error { return g.inner.Remove(name) }

// Rename implements wal.Storage.
func (g *SyncGate) Rename(oldName, newName string) error { return g.inner.Rename(oldName, newName) }

type gatedFile struct {
	wal.File
	g *SyncGate
}

func (f *gatedFile) Sync() error {
	g := f.g
	g.mu.RLock()
	for g.held != nil {
		held := g.held
		g.mu.RUnlock()
		<-held
		g.mu.RLock()
	}
	defer g.mu.RUnlock()
	if g.killed {
		return ErrCrashed
	}
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	err := f.File.Sync()
	g.syncs.Add(1)
	return err
}
