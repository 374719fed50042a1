package engine

import (
	"errors"
	"testing"

	"ermia/internal/wal"
)

// TestHealthMachine pins the transitions both engines share: what a device
// error does from each state, which error each state's write gate returns,
// and which states the Reattach precondition refuses.
func TestHealthMachine(t *testing.T) {
	errDev := errors.New("device died")
	errLater := errors.New("second fault")
	at := func(s HealthState) *Health {
		h := &Health{}
		switch s {
		case Degraded:
			h.Note(errDev)
		case Failed:
			h.Fail()
		case Replica:
			h.SetReplica()
		}
		return h
	}

	for _, tc := range []struct {
		name      string
		from      HealthState
		note      error
		want      HealthState
		wantCause error
	}{
		{"nil moves nothing", Healthy, nil, Healthy, nil},
		{"too large moves nothing", Healthy, wal.ErrTooLarge, Healthy, nil},
		{"device error degrades", Healthy, errDev, Degraded, errDev},
		{"first cause sticks", Degraded, errLater, Degraded, errDev},
		{"closed fails healthy", Healthy, wal.ErrClosed, Failed, nil},
		{"closed fails degraded", Degraded, wal.ErrClosed, Failed, errDev},
		{"failed stays failed", Failed, errDev, Failed, errDev},
		{"replica ignores device errors", Replica, errDev, Replica, errDev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := at(tc.from)
			if got := h.Note(tc.note); got != tc.note {
				t.Fatalf("Note returned %v, want its argument %v", got, tc.note)
			}
			st := h.Status()
			if st.State != tc.want || st.Cause != tc.wantCause {
				t.Fatalf("after Note(%v) from %v: %v, want %v with cause %v", tc.note, tc.from, st, tc.want, tc.wantCause)
			}
		})
	}

	for _, tc := range []struct {
		state    HealthState
		writable error
		reattach error
	}{
		{Healthy, nil, wal.ErrNotDegraded},
		{Degraded, ErrReadOnlyDegraded, nil},
		{Failed, wal.ErrClosed, wal.ErrClosed},
		{Replica, ErrReplicaReadOnly, wal.ErrNotDegraded},
	} {
		t.Run("gates/"+tc.state.String(), func(t *testing.T) {
			h := at(tc.state)
			if err := h.Writable(); !errors.Is(err, tc.writable) || (tc.writable == nil) != (err == nil) {
				t.Fatalf("Writable = %v, want %v", err, tc.writable)
			}
			if err := h.CanReattach(); !errors.Is(err, tc.reattach) || (tc.reattach == nil) != (err == nil) {
				t.Fatalf("CanReattach = %v, want %v", err, tc.reattach)
			}
		})
	}

	t.Run("unavailable", func(t *testing.T) {
		h := &Health{}
		if err := h.Unavailable(wal.ErrTooLarge); err != wal.ErrTooLarge {
			t.Fatalf("Unavailable(ErrTooLarge) = %v, want it unchanged", err)
		}
		if err := h.Unavailable(errDev); !errors.Is(err, ErrReadOnlyDegraded) {
			t.Fatalf("Unavailable(device error) = %v, want ErrReadOnlyDegraded", err)
		}
	})

	t.Run("heal clears the cause", func(t *testing.T) {
		h := at(Degraded)
		h.Heal()
		if st := h.Status(); st.State != Healthy || st.Cause != nil {
			t.Fatalf("after Heal: %v, want healthy with no cause", st)
		}
		h.Note(errLater)
		if st := h.Status(); st.Cause != errLater {
			t.Fatalf("cause after heal and a new fault = %v, want %v", st.Cause, errLater)
		}
	})
}
