// Package epoch implements ERMIA's lightweight epoch-based resource
// management (paper §2 "Epoch-based resource management" and §3.4).
//
// A Manager tracks a monotonically increasing global epoch. Worker threads
// register once, then announce activation (Enter) and quiescence (Exit or the
// cheap conditional Quiesce) through thread-private, cache-padded slots; the
// hot path never takes a lock. Resources are retired under the current epoch
// and reclaimed once every registered thread has quiesced past that epoch,
// guaranteeing no thread-private reference survives.
//
// Following the paper, the manager distinguishes three epoch states instead
// of the usual two: the "open" epoch accepts new arrivals, the previous epoch
// is "closing" (threads still active in it are busy, not stragglers), and
// epochs before that are "closed". Only threads still active in a closed
// epoch count as stragglers; they hold back reclamation but never block
// other threads. ERMIA instantiates several managers at different timescales
// (garbage collection, RCU-style memory management, TID recycling).
package epoch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// State classifies an epoch relative to the current one (paper §3.4).
type State int

const (
	// Open is the current epoch; it accepts new arrivals.
	Open State = iota
	// Closing is the immediately preceding epoch; threads still active in
	// it are treated as busy rather than stragglers.
	Closing
	// Closed epochs precede the closing one; threads still active there are
	// stragglers.
	Closed
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case Closing:
		return "closing"
	default:
		return "closed"
	}
}

// Slot is a thread's private communication channel with a Manager. All
// methods must be called from the single owning goroutine.
type Slot struct {
	epoch  atomic.Uint64 // epoch observed at last Enter/Quiesce
	active atomic.Bool   // true between Enter and Exit
	mgr    *Manager
	idx    int
	_      [40]byte // keep neighbouring slots off this cache line
}

// Manager tracks one epoch timeline. Create instances with NewManager.
type Manager struct {
	epoch atomic.Uint64 // current (open) epoch
	safe  atomic.Uint64 // all active threads have epoch >= safe

	mu      sync.Mutex // guards slots registry and retire buckets
	slots   []*Slot
	retired map[uint64][]func()

	pending atomic.Int64 // count of unreclaimed retired resources

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewManager returns a manager whose epoch starts at 1. If interval > 0, a
// background goroutine advances the epoch and reclaims resources on that
// period (the manager's "timescale"); stop it with Close. With interval 0
// the caller drives the timeline via Advance and TryReclaim.
func NewManager(interval time.Duration) *Manager {
	m := &Manager{retired: make(map[uint64][]func())}
	m.epoch.Store(1)
	m.safe.Store(1)
	if interval > 0 {
		m.stop = make(chan struct{})
		m.done = make(chan struct{})
		go m.run(interval)
	}
	return m
}

func (m *Manager) run(interval time.Duration) {
	defer close(m.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Advance()
			m.TryReclaim()
		}
	}
}

// Close stops the background advancer, if any, and reclaims everything that
// is already safe. Resources retired by stragglers afterwards are the
// caller's responsibility. Close is idempotent and safe for concurrent use:
// engine shutdown paths (including error-triggered ones, where both a
// failing component and the outer Close race to tear down) may call it more
// than once.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		if m.stop != nil {
			close(m.stop)
			<-m.done
		}
	})
	m.Advance()
	m.TryReclaim()
}

// Register adds the calling thread to the manager's timeline and returns its
// slot. The slot starts quiescent.
func (m *Manager) Register() *Slot {
	s := &Slot{mgr: m}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, old := range m.slots {
		if old == nil {
			s.idx = i
			m.slots[i] = s
			return s
		}
	}
	s.idx = len(m.slots)
	m.slots = append(m.slots, s)
	return s
}

// Unregister removes the slot from the timeline. The slot must be quiescent.
func (s *Slot) Unregister() {
	m := s.mgr
	m.mu.Lock()
	m.slots[s.idx] = nil
	m.mu.Unlock()
}

// Enter announces that the thread is active: it may acquire references to
// epoch-protected resources until Exit.
func (s *Slot) Enter() {
	s.epoch.Store(s.mgr.epoch.Load())
	s.active.Store(true)
}

// Exit announces quiescence: the thread holds no protected references.
func (s *Slot) Exit() {
	s.active.Store(false)
}

// Quiesce is the paper's conditional quiescent point: a single shared read
// in the common case. If the global epoch has moved past the slot's, the
// slot re-publishes itself under the current epoch, letting older epochs
// close without a full Exit/Enter. Safe to call while active.
func (s *Slot) Quiesce() {
	g := s.mgr.epoch.Load()
	if s.epoch.Load() != g {
		s.epoch.Store(g)
	}
}

// Epoch returns the epoch the slot last published.
func (s *Slot) Epoch() uint64 { return s.epoch.Load() }

// Current returns the open epoch.
func (m *Manager) Current() uint64 { return m.epoch.Load() }

// StateOf classifies epoch e as Open, Closing, or Closed.
func (m *Manager) StateOf(e uint64) State {
	cur := m.epoch.Load()
	switch {
	case e >= cur:
		return Open
	case e == cur-1:
		return Closing
	default:
		return Closed
	}
}

// Advance opens a new epoch and recomputes the safe horizon. It returns the
// new open epoch. The previous open epoch transitions to closing, and the
// epoch before that to closed, per the three-phase design.
func (m *Manager) Advance() uint64 {
	e := m.epoch.Add(1)
	m.recomputeSafe()
	return e
}

// recomputeSafe sets safe = min(current epoch, min epoch of active slots).
func (m *Manager) recomputeSafe() {
	safe := m.epoch.Load()
	m.mu.Lock()
	for _, s := range m.slots {
		if s == nil || !s.active.Load() {
			continue
		}
		if e := s.epoch.Load(); e < safe {
			safe = e
		}
	}
	m.mu.Unlock()
	// safe only moves forward.
	for {
		old := m.safe.Load()
		if safe <= old || m.safe.CompareAndSwap(old, safe) {
			return
		}
	}
}

// Safe returns the reclamation horizon: every active thread has published an
// epoch >= Safe(), so resources retired in epochs < Safe() have no surviving
// thread-private references.
func (m *Manager) Safe() uint64 { return m.safe.Load() }

// Stragglers returns the slots still active in a closed epoch. In the
// common case this is empty: busy threads quiesce during the closing phase.
func (m *Manager) Stragglers() []*Slot {
	cur := m.epoch.Load()
	var out []*Slot
	m.mu.Lock()
	for _, s := range m.slots {
		if s != nil && s.active.Load() && s.epoch.Load()+1 < cur {
			out = append(out, s)
		}
	}
	m.mu.Unlock()
	return out
}

// Retire schedules fn to run once no thread can hold a reference to the
// resource it frees. The resource must already be unreachable to new
// arrivals (e.g. unlinked with a CAS) before Retire is called.
func (m *Manager) Retire(fn func()) {
	e := m.epoch.Load()
	m.mu.Lock()
	m.retired[e] = append(m.retired[e], fn)
	m.mu.Unlock()
	m.pending.Add(1)
}

// TryReclaim runs the retire callbacks of every epoch older than the safe
// horizon and returns how many ran.
func (m *Manager) TryReclaim() int {
	m.recomputeSafe()
	safe := m.safe.Load()
	var ready []func()
	m.mu.Lock()
	for e, fns := range m.retired {
		if e < safe {
			ready = append(ready, fns...)
			delete(m.retired, e)
		}
	}
	m.mu.Unlock()
	for _, fn := range ready {
		fn()
	}
	m.pending.Add(int64(-len(ready)))
	return len(ready)
}

// Pending returns the number of retired resources not yet reclaimed.
func (m *Manager) Pending() int64 { return m.pending.Load() }

// WaitQuiescent advances the epoch and spins (yielding) until every resource
// retired before the call has been reclaimed or maxSpins is exhausted. It
// returns true on success. Intended for shutdown paths and tests.
func (m *Manager) WaitQuiescent(maxSpins int) bool {
	target := m.epoch.Load() + 1
	m.Advance()
	for i := 0; i < maxSpins; i++ {
		m.Advance()
		m.TryReclaim()
		if m.safe.Load() >= target && m.Pending() == 0 {
			return true
		}
		runtime.Gosched()
	}
	return false
}
