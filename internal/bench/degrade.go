// The degradation sweep must reproduce from its seed alone: every fault
// point, workload choice, and audit outcome is a function of the Plan.
//
//ermia:deterministic
package bench

import (
	"errors"
	"fmt"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultfs"
	"ermia/internal/silo"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// The degradation sweep exercises the fault-containment contract end to end:
// a seeded workload runs against a fault-injected device through repeated
// inject → degrade → serve-reads → heal → reattach → write-again cycles, and
// every acknowledged commit must be readable while degraded and present
// after a final crash-recovery audit. It is the runtime analogue of the
// crash-point sweep: instead of killing the process at every I/O, it kills
// the device under a live engine and demands read service continue.

// DegradeTarget adapts one engine to the sweep: how to open it and how to
// recover it, since the engines' configs differ. Everything else goes
// through engine.DB and engine.Durable.
type DegradeTarget struct {
	Name string
	// Open creates a fresh DB on the injected storage.
	Open func(st wal.Storage) (engine.DB, error)
	// Recover reopens a DB from the durable crash image for the audit.
	Recover func(st wal.Storage) (engine.DB, error)
}

// CoreDegradeTarget adapts the ERMIA engine (SyncFlush mode, so group
// commit is driver-paced and the sweep is deterministic).
func CoreDegradeTarget() DegradeTarget {
	cfg := func(st wal.Storage) core.Config {
		return core.Config{WAL: wal.Config{
			SegmentSize: 16 << 10, BufferSize: 8 << 10, Storage: st, SyncFlush: true,
		}}
	}
	return DegradeTarget{
		Name:    EngERMIASI,
		Open:    func(st wal.Storage) (engine.DB, error) { return core.Open(cfg(st)) },
		Recover: func(st wal.Storage) (engine.DB, error) { return core.Recover(cfg(st)) },
	}
}

// SiloDegradeTarget adapts the Silo engine (long epoch interval, so group
// commit is driver-paced via WaitDurable).
func SiloDegradeTarget() DegradeTarget {
	cfg := func(st wal.Storage) silo.Config {
		return silo.Config{Storage: st, EpochInterval: time.Hour}
	}
	return DegradeTarget{
		Name:    EngSilo,
		Open:    func(st wal.Storage) (engine.DB, error) { return silo.Open(cfg(st)) },
		Recover: func(st wal.Storage) (engine.DB, error) { return silo.Recover(cfg(st)) },
	}
}

// DegradeTargets is the standard two-engine comparison set.
func DegradeTargets() []DegradeTarget {
	return []DegradeTarget{CoreDegradeTarget(), SiloDegradeTarget()}
}

// DegradeOptions scales the sweep. Zero values select defaults.
type DegradeOptions struct {
	Cycles         int    // inject→heal cycles (default 3)
	WritesPerPhase int    // writes in each healthy/degraded/healed phase (default 16)
	ReadsPerPhase  int    // reads served while degraded (default 32)
	Keys           int    // key-space size (default 64)
	Seed           uint64 // workload seed; a run reproduces from it alone
}

func (o *DegradeOptions) setDefaults() {
	if o.Cycles == 0 {
		o.Cycles = 3
	}
	if o.WritesPerPhase == 0 {
		o.WritesPerPhase = 16
	}
	if o.ReadsPerPhase == 0 {
		o.ReadsPerPhase = 32
	}
	if o.Keys == 0 {
		o.Keys = 64
	}
}

// DegradeResult counts what the sweep observed.
type DegradeResult struct {
	Cycles        int
	Committed     int // acknowledged committed write transactions
	RefusedWrites int // writes refused with ErrReadOnlyDegraded
	DegradedReads int // reads served, and verified, while degraded
	Audited       int // keys verified by the final crash-recovery audit
}

// DegradeSweep runs the cycle workload against one engine and returns the
// first invariant violation as an error: an acknowledged commit that is
// unreadable while degraded, a write not refused while degraded, a health
// state out of step with the device, or a key missing after recovery.
func DegradeSweep(tgt DegradeTarget, opts DegradeOptions) (DegradeResult, error) {
	opts.setDefaults()
	var res DegradeResult
	rng := xrand.New2(opts.Seed, 0xDE64)

	inner := wal.NewMemStorage()
	inj := faultfs.NewInjector(inner, faultfs.Plan{})
	db, err := tgt.Open(inj)
	if err != nil {
		return res, fmt.Errorf("%s: open: %w", tgt.Name, err)
	}
	defer db.Close()
	dur, ok := db.(engine.Durable)
	if !ok {
		return res, fmt.Errorf("%s: engine %T does not implement engine.Durable", tgt.Name, db)
	}
	tbl := db.CreateTable("kv")

	// model holds every acknowledged committed write; keys orders it so the
	// sweep replays deterministically from the seed.
	model := map[string]string{}
	var keys []string
	seq := 0
	writeOne := func() error {
		k := fmt.Sprintf("k%03d", rng.Intn(opts.Keys))
		seq++
		v := fmt.Sprintf("v%d", seq)
		txn := db.Begin(0)
		err := txn.Update(tbl, []byte(k), []byte(v))
		if errors.Is(err, engine.ErrNotFound) {
			err = txn.Insert(tbl, []byte(k), []byte(v))
		}
		if err == nil {
			err = txn.Commit()
		} else {
			txn.Abort()
		}
		if err != nil {
			return err
		}
		if _, seen := model[k]; !seen {
			keys = append(keys, k)
		}
		model[k] = v
		res.Committed++
		return nil
	}
	readOne := func(ctx string) error {
		if len(keys) == 0 {
			return nil
		}
		k := keys[rng.Intn(len(keys))]
		txn := db.BeginReadOnly(0)
		v, err := txn.Get(tbl, []byte(k))
		if err != nil || string(v) != model[k] {
			txn.Abort()
			return fmt.Errorf("%s: %s read %s = %q, %v (want %q)", tgt.Name, ctx, k, v, err, model[k])
		}
		if err := txn.Commit(); err != nil {
			return fmt.Errorf("%s: %s read-only commit: %w", tgt.Name, ctx, err)
		}
		return nil
	}

	for cycle := 0; cycle < opts.Cycles; cycle++ {
		res.Cycles++
		// Healthy phase: writes commit and become durable.
		for i := 0; i < opts.WritesPerPhase; i++ {
			if err := writeOne(); err != nil {
				return res, fmt.Errorf("%s: cycle %d healthy write: %w", tgt.Name, cycle, err)
			}
		}
		if err := dur.WaitDurable(); err != nil {
			return res, fmt.Errorf("%s: cycle %d sync: %w", tgt.Name, cycle, err)
		}
		if h := dur.Health(); h.State != engine.Healthy {
			return res, fmt.Errorf("%s: cycle %d health = %v, want healthy", tgt.Name, cycle, h)
		}

		// Kill the device and drive until the engine notices. A commit
		// acknowledged in this window is still in the model: the engine
		// buffered it in the log's ring and owes it to Reattach.
		inj.SetFailOp(inj.OpCount() + 1)
		degraded := false
		for tries := 0; tries < 64 && !degraded; tries++ {
			err := writeOne()
			switch {
			case err == nil:
			case errors.Is(err, engine.ErrReadOnlyDegraded):
				degraded = true
			default:
				return res, fmt.Errorf("%s: cycle %d write on dying device: %w", tgt.Name, cycle, err)
			}
			if dur.Health().State == engine.Degraded {
				degraded = true
			} else if !degraded {
				if err := dur.WaitDurable(); err != nil {
					if h := dur.Health(); h.State != engine.Degraded {
						return res, fmt.Errorf("%s: cycle %d sync failed (%v) without degrading: %v", tgt.Name, cycle, err, h)
					}
					degraded = true
				}
			}
		}
		if !degraded {
			return res, fmt.Errorf("%s: cycle %d: device killed but DB never degraded", tgt.Name, cycle)
		}

		// Degraded phase: reads are served from memory and verified against
		// the model; writes are refused with the typed error.
		for i := 0; i < opts.ReadsPerPhase; i++ {
			if err := readOne("degraded"); err != nil {
				return res, err
			}
			res.DegradedReads++
		}
		for i := 0; i < opts.WritesPerPhase; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(opts.Keys))
			txn := db.Begin(0)
			err := txn.Update(tbl, []byte(k), []byte("refused"))
			if errors.Is(err, engine.ErrNotFound) {
				err = txn.Insert(tbl, []byte(k), []byte("refused"))
			}
			if err == nil {
				err = txn.Commit()
			} else {
				txn.Abort()
			}
			if !errors.Is(err, engine.ErrReadOnlyDegraded) {
				return res, fmt.Errorf("%s: cycle %d degraded write = %v, want ErrReadOnlyDegraded", tgt.Name, cycle, err)
			}
			res.RefusedWrites++
		}

		// Heal and re-attach: full service returns.
		inj.Heal()
		rep, err := dur.Reattach(nil)
		if err == nil && rep.Lost != 0 {
			err = fmt.Errorf("reattach lost %d bytes from the durable window", rep.Lost)
		}
		if err != nil {
			return res, fmt.Errorf("%s: cycle %d reattach: %w", tgt.Name, cycle, err)
		}
		if h := dur.Health(); h.State != engine.Healthy {
			return res, fmt.Errorf("%s: cycle %d health after reattach = %v", tgt.Name, cycle, h)
		}
		for i := 0; i < opts.WritesPerPhase; i++ {
			if err := writeOne(); err != nil {
				return res, fmt.Errorf("%s: cycle %d healed write: %w", tgt.Name, cycle, err)
			}
		}
		if err := dur.WaitDurable(); err != nil {
			return res, fmt.Errorf("%s: cycle %d healed sync: %w", tgt.Name, cycle, err)
		}
	}

	// Audit: crash, recover from the durable image, and demand every
	// acknowledged commit — the committed prefix — be present and current.
	if err := db.Close(); err != nil {
		return res, fmt.Errorf("%s: close: %w", tgt.Name, err)
	}
	rdb, err := tgt.Recover(inner.Crash())
	if err != nil {
		return res, fmt.Errorf("%s: audit recovery: %w", tgt.Name, err)
	}
	defer rdb.Close()
	rtbl := rdb.OpenTable("kv")
	if rtbl == nil {
		return res, fmt.Errorf("%s: audit: table missing after recovery", tgt.Name)
	}
	txn := rdb.BeginReadOnly(0)
	defer txn.Abort()
	for _, k := range keys {
		v, err := txn.Get(rtbl, []byte(k))
		if err != nil || string(v) != model[k] {
			return res, fmt.Errorf("%s: audit: %s = %q, %v (want %q): acknowledged commit lost", tgt.Name, k, v, err, model[k])
		}
		res.Audited++
	}
	return res, nil
}
