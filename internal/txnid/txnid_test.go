package txnid

import (
	"sync"
	"testing"
)

func begin(v uint64) func() uint64 { return func() uint64 { return v } }

func TestAllocateLifecycle(t *testing.T) {
	m := NewManager()
	tid, err := m.Allocate(begin(100))
	if err != nil {
		t.Fatal(err)
	}
	if tid == 0 {
		t.Fatal("TID must never be zero")
	}
	if s, _, ok := m.Inquire(tid); !ok || s != StatusActive {
		t.Fatalf("after allocate: status=%v ok=%v", s, ok)
	}
	if b, ok := m.Begin(tid); !ok || b != 100 {
		t.Fatalf("begin = %d, ok=%v", b, ok)
	}

	m.SetCommitting(tid, 555)
	if s, c, ok := m.Inquire(tid); !ok || s != StatusCommitting || c != 555 {
		t.Fatalf("committing: status=%v cstamp=%d ok=%v", s, c, ok)
	}
	m.SetCommitted(tid)
	if s, c, _ := m.Inquire(tid); s != StatusCommitted || c != 555 {
		t.Fatalf("committed: status=%v cstamp=%d", s, c)
	}
	m.Release(tid)
	if _, _, ok := m.Inquire(tid); ok {
		t.Fatal("released TID still inquirable")
	}
}

func TestAbortPath(t *testing.T) {
	m := NewManager()
	tid, _ := m.Allocate(begin(1))
	m.SetAborted(tid)
	if s, _, ok := m.Inquire(tid); !ok || s != StatusAborted {
		t.Fatalf("status=%v ok=%v", s, ok)
	}
	m.Release(tid)
}

func TestGenerationInvalidatesOldTID(t *testing.T) {
	m := NewManager()
	old, _ := m.Allocate(begin(1))
	m.SetCommitted(old)
	m.Release(old)

	// Reclaim the same slot for a new generation.
	var reborn TID
	for {
		tid, err := m.Allocate(begin(2))
		if err != nil {
			t.Fatal(err)
		}
		if tid.Slot() == old.Slot() {
			reborn = tid
			break
		}
		// Different slot claimed first; keep it allocated and try again.
	}
	if reborn.Generation() <= old.Generation() {
		t.Fatalf("generation did not advance: %d -> %d", old.Generation(), reborn.Generation())
	}
	if _, _, ok := m.Inquire(old); ok {
		t.Fatal("stale-generation TID accepted")
	}
	if s, _, ok := m.Inquire(reborn); !ok || s != StatusActive {
		t.Fatalf("new generation: status=%v ok=%v", s, ok)
	}
}

func TestTIDFields(t *testing.T) {
	tid := TID(5<<16 | 1234)
	if tid.Slot() != 1234 || tid.Generation() != 5 {
		t.Errorf("slot=%d gen=%d", tid.Slot(), tid.Generation())
	}
}

func TestActiveCount(t *testing.T) {
	m := NewManager()
	var tids []TID
	for i := 0; i < 10; i++ {
		tid, _ := m.Allocate(begin(uint64(i + 1)))
		tids = append(tids, tid)
	}
	if got := m.ActiveCount(); got != 10 {
		t.Fatalf("active = %d", got)
	}
	for _, tid := range tids {
		m.SetCommitted(tid)
		m.Release(tid)
	}
	if got := m.ActiveCount(); got != 0 {
		t.Fatalf("active after release = %d", got)
	}
}

func TestConcurrentAllocateRelease(t *testing.T) {
	m := NewManager()
	const workers, iters = 8, 3000
	var wg sync.WaitGroup
	seen := make([]map[TID]bool, workers)
	for w := 0; w < workers; w++ {
		seen[w] = make(map[TID]bool)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tid, err := m.Allocate(begin(uint64(i + 1)))
				if err != nil {
					t.Error(err)
					return
				}
				if seen[id][tid] {
					t.Errorf("worker %d saw TID %d twice", id, tid)
					return
				}
				seen[id][tid] = true
				m.SetCommitting(tid, uint64(i+2))
				m.SetCommitted(tid)
				m.Release(tid)
			}
		}(w)
	}
	wg.Wait()
	// Cross-worker uniqueness: TIDs include generations, so no TID may
	// repeat anywhere.
	all := make(map[TID]int)
	for w, s := range seen {
		for tid := range s {
			if prev, dup := all[tid]; dup {
				t.Fatalf("TID %d issued to workers %d and %d", tid, prev, w)
			}
			all[tid] = w
		}
	}
	if m.ActiveCount() != 0 {
		t.Errorf("leaked active transactions: %d", m.ActiveCount())
	}
}

func TestConcurrentInquire(t *testing.T) {
	m := NewManager()
	const iters = 2000
	done := make(chan struct{})
	var tidBox sync.Map

	go func() {
		defer close(done)
		for i := 0; i < iters; i++ {
			tid, err := m.Allocate(begin(uint64(i + 1)))
			if err != nil {
				t.Error(err)
				return
			}
			tidBox.Store("cur", tid)
			m.SetCommitting(tid, uint64(1000+i))
			m.SetCommitted(tid)
			m.Release(tid)
		}
	}()

	// Concurrent inquirer: every answer must be internally consistent.
	for {
		select {
		case <-done:
			return
		default:
		}
		v, ok := tidBox.Load("cur")
		if !ok {
			continue
		}
		tid := v.(TID)
		status, cstamp, valid := m.Inquire(tid)
		if !valid {
			continue // stale generation: acceptable outcome
		}
		switch status {
		case StatusActive, StatusCommitting, StatusCommitted, StatusAborted:
			if (status == StatusCommitting || status == StatusCommitted) && cstamp == 0 {
				t.Fatalf("status %v with zero cstamp", status)
			}
		default:
			t.Fatalf("impossible status %v", status)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusFree: "free", StatusActive: "active", StatusCommitting: "committing",
		StatusCommitted: "committed", StatusAborted: "aborted", Status(99): "invalid",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func BenchmarkAllocateRelease(b *testing.B) {
	m := NewManager()
	for i := 0; i < b.N; i++ {
		tid, _ := m.Allocate(begin(uint64(i + 1)))
		m.SetCommitted(tid)
		m.Release(tid)
	}
}

func BenchmarkInquire(b *testing.B) {
	m := NewManager()
	tid, _ := m.Allocate(begin(1))
	m.SetCommitting(tid, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Inquire(tid)
	}
}
