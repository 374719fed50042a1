// Package faultfs is a fault-injection layer over wal.Storage, the medium
// abstraction both engines log through. It is the substrate of the repo's
// crash-point sweep harness: durability claims ("every transaction
// acknowledged by WaitDurable survives a crash; no partial transaction is
// ever visible") are only as credible as their behavior under partial and
// torn writes, which the paper assumes away.
//
// The package offers three decorators and a replay facility (SyncGate, in
// syncgate.go, lets a test hold, delay, count and kill a storage's syncs):
//
//   - Injector wraps a Storage and deterministically injects faults by
//     operation count: an I/O error on the Nth mutating operation, silently
//     dropped Syncs, and a crash point after which every operation fails
//     and nothing further is applied. Every fault is positional, so a
//     failure reproduces from its Plan alone.
//
//   - Recorder wraps a Storage and records every mutating operation — in
//     execution order, with payload copies — into a Trace. It counts the
//     bytes read, too.
//
//   - Replay / CrashImage rebuild storage state from a Trace prefix.
//     CrashImage(tr, p) is the durable image of a crash at point p: synced
//     bytes survive, unsynced writes are lost, and optionally a prefix of
//     the in-flight write persists (a torn write that partially reached the
//     medium). Points enumerates every crash and torn-write point of a
//     trace with seeded, reproducible torn lengths: a failing point is
//     reconstructed from (seed, index, torn) alone.
//
//ermia:deterministic
package faultfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// ErrInjected is returned by operations the Plan designates as failing.
var ErrInjected = errors.New("faultfs: injected I/O error")

// ErrCrashed is returned by every operation after the crash point.
var ErrCrashed = errors.New("faultfs: storage crashed")

// OpKind classifies a mutating storage operation.
type OpKind uint8

const (
	// OpCreate makes (or truncates) a file.
	OpCreate OpKind = iota + 1
	// OpWrite writes Data at Off.
	OpWrite
	// OpSync makes a file's writes durable.
	OpSync
	// OpRemove deletes a file.
	OpRemove
	// OpRename atomically moves Name to NewName.
	OpRename
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRemove:
		return "remove"
	case OpRename:
		return "rename"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one recorded mutating operation.
type Op struct {
	Kind    OpKind
	Name    string
	NewName string // OpRename only: the destination name
	Off     int64  // OpWrite only
	Data    []byte // OpWrite only; an owned copy
}

// Trace is an ordered record of every mutating operation a workload issued.
type Trace []Op

// Writes returns how many write operations the trace holds.
func (tr Trace) Writes() int {
	n := 0
	for _, op := range tr {
		if op.Kind == OpWrite {
			n++
		}
	}
	return n
}

// Syncs returns how many sync operations the trace holds.
func (tr Trace) Syncs() int {
	n := 0
	for _, op := range tr {
		if op.Kind == OpSync {
			n++
		}
	}
	return n
}

// ---- Recorder ----

// Recorder decorates a Storage, recording every mutating operation in
// execution order. Reads pass through, counted but unrecorded.
type Recorder struct {
	inner wal.Storage
	mu    sync.Mutex
	ops   Trace
	read  atomic.Int64
}

// NewRecorder returns a recording decorator over inner.
func NewRecorder(inner wal.Storage) *Recorder {
	return &Recorder{inner: inner}
}

// Ops returns a snapshot of the trace so far.
func (r *Recorder) Ops() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(Trace(nil), r.ops...)
}

// ReadBytes returns how many bytes ReadAt has returned so far.
func (r *Recorder) ReadBytes() int64 { return r.read.Load() }

func (r *Recorder) record(op Op) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Create implements wal.Storage.
func (r *Recorder) Create(name string) (wal.File, error) {
	f, err := r.inner.Create(name)
	if err != nil {
		return nil, err
	}
	r.record(Op{Kind: OpCreate, Name: name})
	return &recFile{inner: f, rec: r, name: name}, nil
}

// Open implements wal.Storage.
func (r *Recorder) Open(name string) (wal.File, error) {
	f, err := r.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &recFile{inner: f, rec: r, name: name}, nil
}

// List implements wal.Storage.
func (r *Recorder) List() ([]string, error) { return r.inner.List() }

// Remove implements wal.Storage.
func (r *Recorder) Remove(name string) error {
	if err := r.inner.Remove(name); err != nil {
		return err
	}
	r.record(Op{Kind: OpRemove, Name: name})
	return nil
}

// Rename implements wal.Storage.
func (r *Recorder) Rename(oldName, newName string) error {
	if err := r.inner.Rename(oldName, newName); err != nil {
		return err
	}
	r.record(Op{Kind: OpRename, Name: oldName, NewName: newName})
	return nil
}

type recFile struct {
	inner wal.File
	rec   *Recorder
	name  string
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.inner.WriteAt(p, off)
	if err != nil {
		return n, err
	}
	f.rec.record(Op{Kind: OpWrite, Name: f.name, Off: off, Data: append([]byte(nil), p[:n]...)})
	return n, nil
}

func (f *recFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.inner.ReadAt(p, off)
	f.rec.read.Add(int64(n))
	return n, err
}

func (f *recFile) Size() (int64, error) { return f.inner.Size() }

func (f *recFile) Sync() error {
	if err := f.inner.Sync(); err != nil {
		return err
	}
	f.rec.record(Op{Kind: OpSync, Name: f.name})
	return nil
}

func (f *recFile) Close() error { return f.inner.Close() }

// ---- Injector ----

// Plan is a deterministic fault schedule. Operation indices are 1-based
// positions in the storage-wide sequence of mutating operations (Create,
// WriteAt, Sync, Remove); zero disables a fault.
type Plan struct {
	// FailOp makes the FailOp-th mutating operation return ErrInjected
	// without being applied. Later operations proceed normally.
	FailOp int
	// FailFrom/FailTo make every mutating operation in [FailFrom, FailTo]
	// (1-based, inclusive) return ErrInjected without being applied: the
	// transient-outage model — the device dies, stays dead for a window,
	// then works again on its own. FailTo == 0 with FailFrom > 0 means the
	// outage lasts until Heal is called.
	FailFrom int
	FailTo   int
	// ErrorRate makes each mutating operation fail with this probability —
	// the flaky-device model. The coin flips come from a generator seeded
	// with Seed, so a run reproduces from the plan alone.
	ErrorRate float64
	// Seed seeds the ErrorRate coin flips (zero is remapped by xrand).
	Seed uint64
	// DropSyncs makes every Sync report success without persisting
	// anything: the lying-disk model. Combined with MemStorage.Crash, all
	// writes since the wrap are lost.
	DropSyncs bool
	// CrashAtOp crashes the storage at the CrashAtOp-th mutating
	// operation: it and every later operation fail with ErrCrashed and
	// nothing further reaches the underlying storage.
	CrashAtOp int
}

// Injector decorates a Storage with deterministic fault injection.
type Injector struct {
	inner wal.Storage
	plan  Plan

	mu      sync.Mutex
	ops     int
	crashed bool
	rng     *xrand.Rand // ErrorRate coin flips; seeded from plan.Seed
}

// NewInjector returns a fault-injecting decorator over inner.
func NewInjector(inner wal.Storage, plan Plan) *Injector {
	return &Injector{inner: inner, plan: plan, rng: xrand.New2(plan.Seed, 0xFA07)}
}

// OpCount returns how many mutating operations have been attempted.
func (i *Injector) OpCount() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.ops
}

// SetFailOp arms (or rearms) the injected failure at the n-th mutating
// operation, counted from the injector's creation. Combine with OpCount to
// fail "the next operation".
func (i *Injector) SetFailOp(n int) {
	i.mu.Lock()
	i.plan.FailOp = n
	i.mu.Unlock()
}

// Crash fails every subsequent operation, independent of the plan.
func (i *Injector) Crash() {
	i.mu.Lock()
	i.crashed = true
	i.mu.Unlock()
}

// Crashed reports whether the crash point has been reached.
func (i *Injector) Crashed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Heal clears every armed fault — positional, range, rate, and crash — so
// subsequent operations reach the underlying storage again. It models the
// device coming back (or an operator swapping in a healthy one): state the
// underlying storage already holds is untouched, operations that failed
// during the outage stay failed. Pair with Manager.Reattach to bring the
// log back into service.
func (i *Injector) Heal() {
	i.mu.Lock()
	i.plan.FailOp = 0
	i.plan.FailFrom, i.plan.FailTo = 0, 0
	i.plan.ErrorRate = 0
	i.plan.CrashAtOp = 0
	i.crashed = false
	i.mu.Unlock()
}

// step accounts one mutating operation and decides its fate.
func (i *Injector) step() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.ops++
	if i.crashed || (i.plan.CrashAtOp > 0 && i.ops >= i.plan.CrashAtOp) {
		i.crashed = true
		return ErrCrashed
	}
	if i.ops == i.plan.FailOp {
		return ErrInjected
	}
	if i.plan.FailFrom > 0 && i.ops >= i.plan.FailFrom &&
		(i.plan.FailTo == 0 || i.ops <= i.plan.FailTo) {
		return ErrInjected
	}
	if i.plan.ErrorRate > 0 && i.rng.Float64() < i.plan.ErrorRate {
		return ErrInjected
	}
	return nil
}

// Create implements wal.Storage.
func (i *Injector) Create(name string) (wal.File, error) {
	if err := i.step(); err != nil {
		return nil, err
	}
	f, err := i.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inner: f, inj: i}, nil
}

// Open implements wal.Storage.
func (i *Injector) Open(name string) (wal.File, error) {
	if i.Crashed() {
		return nil, ErrCrashed
	}
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{inner: f, inj: i}, nil
}

// List implements wal.Storage.
func (i *Injector) List() ([]string, error) {
	if i.Crashed() {
		return nil, ErrCrashed
	}
	return i.inner.List()
}

// Remove implements wal.Storage.
func (i *Injector) Remove(name string) error {
	if err := i.step(); err != nil {
		return err
	}
	return i.inner.Remove(name)
}

// Rename implements wal.Storage.
func (i *Injector) Rename(oldName, newName string) error {
	if err := i.step(); err != nil {
		return err
	}
	return i.inner.Rename(oldName, newName)
}

type injFile struct {
	inner wal.File
	inj   *Injector
}

func (f *injFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.inj.step(); err != nil {
		return 0, err
	}
	return f.inner.WriteAt(p, off)
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	if f.inj.Crashed() {
		return 0, ErrCrashed
	}
	return f.inner.ReadAt(p, off)
}

func (f *injFile) Size() (int64, error) {
	if f.inj.Crashed() {
		return 0, ErrCrashed
	}
	return f.inner.Size()
}

func (f *injFile) Sync() error {
	if err := f.inj.step(); err != nil {
		return err
	}
	if f.inj.plan.DropSyncs {
		return nil // lie: report durability without persisting
	}
	return f.inner.Sync()
}

func (f *injFile) Close() error { return f.inner.Close() }

// ---- Replay ----

// Point identifies one crash point of a trace: the first Index operations
// were fully applied and synced-or-not as recorded; then the machine died.
// When Torn is set, operation tr[Index] is a write of which only TornLen
// bytes reached the medium — a torn write.
type Point struct {
	Index   int
	Torn    bool
	TornLen int
}

func (p Point) String() string {
	if p.Torn {
		return fmt.Sprintf("point %d (torn, %d bytes persisted)", p.Index, p.TornLen)
	}
	return fmt.Sprintf("point %d", p.Index)
}

// Replay applies the first k operations of tr to a fresh MemStorage and
// returns it (volatile state included; call Crash on the result for the
// durable image).
func Replay(tr Trace, k int) (*wal.MemStorage, error) {
	st := wal.NewMemStorage()
	files := make(map[string]wal.File)
	for idx, op := range tr[:k] {
		var err error
		switch op.Kind {
		case OpCreate:
			files[op.Name], err = st.Create(op.Name)
		case OpWrite:
			f := files[op.Name]
			if f == nil {
				if f, err = st.Open(op.Name); err != nil {
					return nil, fmt.Errorf("faultfs: replay op %d: write to unknown file %s", idx, op.Name)
				}
				files[op.Name] = f
			}
			_, err = f.WriteAt(op.Data, op.Off)
		case OpSync:
			if f := files[op.Name]; f != nil {
				err = f.Sync()
			}
		case OpRemove:
			delete(files, op.Name)
			err = st.Remove(op.Name)
		case OpRename:
			if f := files[op.Name]; f != nil {
				files[op.NewName] = f
			}
			delete(files, op.Name)
			err = st.Rename(op.Name, op.NewName)
		default:
			err = fmt.Errorf("faultfs: replay op %d: unknown kind %v", idx, op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faultfs: replay op %d (%v %s): %w", idx, op.Kind, op.Name, err)
		}
	}
	return st, nil
}

// CrashImage materializes the durable storage state of a crash at point p:
// the trace prefix is replayed, unsynced bytes are discarded, and when p is
// torn, the first TornLen bytes of the in-flight write are persisted on top
// (partial persistence of a write that was in the device queue).
func CrashImage(tr Trace, p Point) (*wal.MemStorage, error) {
	if p.Index < 0 || p.Index > len(tr) {
		return nil, fmt.Errorf("faultfs: point %d out of range [0,%d]", p.Index, len(tr))
	}
	st, err := Replay(tr, p.Index)
	if err != nil {
		return nil, err
	}
	crashed := st.Crash()
	if !p.Torn {
		return crashed, nil
	}
	if p.Index >= len(tr) || tr[p.Index].Kind != OpWrite {
		return nil, fmt.Errorf("faultfs: torn %v is not a write", p)
	}
	op := tr[p.Index]
	n := p.TornLen
	if n > len(op.Data) {
		n = len(op.Data)
	}
	f, err := crashed.Open(op.Name)
	if err != nil {
		// The file had no synced bytes yet; it still existed on the medium.
		if f, err = crashed.Create(op.Name); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		if _, err := f.WriteAt(op.Data[:n], op.Off); err != nil {
			return nil, err
		}
	}
	if err := f.Sync(); err != nil { // the torn bytes are on the platter
		return nil, err
	}
	return crashed, nil
}

// TornLen returns the seeded prefix length for a torn write at trace index
// k: deterministic in (seed, k, size), so a failing point reproduces from
// the printed seed and index alone.
func TornLen(seed uint64, k, size int) int {
	return xrand.New2(seed, uint64(k)).Intn(size + 1)
}

// Points enumerates the crash points of a trace: a pure point at every
// operation boundary (0 through len(tr)), plus a torn point for every write
// with a seeded prefix length. A write that ends in at least a grain of zeros
// carries the log's zero-ahead fill: its seeded tear falls in the bytes
// before the fill, and a second torn point keeps those whole and half the
// fill. If the total exceeds max (> 0), points are sampled with an even
// deterministic stride that always keeps the first and final boundaries.
func Points(tr Trace, seed uint64, max int) []Point {
	var pts []Point
	for k := 0; k <= len(tr); k++ {
		pts = append(pts, Point{Index: k})
		if k < len(tr) && tr[k].Kind == OpWrite && len(tr[k].Data) > 0 {
			n := len(tr[k].Data)
			live := len(bytes.TrimRight(tr[k].Data, "\x00"))
			if n-live < wal.Grain {
				live = n
			}
			pts = append(pts, Point{Index: k, Torn: true, TornLen: TornLen(seed, k, live)})
			if live < n {
				pts = append(pts, Point{Index: k, Torn: true, TornLen: live + (n-live)/2})
			}
		}
	}
	if max <= 0 || len(pts) <= max {
		return pts
	}
	out := make([]Point, 0, max)
	stride := float64(len(pts)-1) / float64(max-1)
	prev := -1
	for i := 0; i < max; i++ {
		j := int(float64(i) * stride)
		if j <= prev {
			j = prev + 1
		}
		if j >= len(pts) {
			break
		}
		out = append(out, pts[j])
		prev = j
	}
	return out
}
