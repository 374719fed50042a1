// Package index implements the concurrent ordered index ERMIA and the Silo
// baseline use for tables (the paper uses Masstree; see DESIGN.md for how
// this reproduction's B-link tree stands in for it).
//
// Readers are lock-free and never retry: every node version is an immutable
// snapshot behind an atomic pointer, so a reader never observes a torn node
// and never blocks. Inner nodes are copied on write. A leaf snapshot is a
// view, a permutation listing live slots in key order, over an array of
// (key, value) slots the leaf's views share. An insert writes the next free
// slot before it publishes the view that covers it, and no slot is written
// twice in one array, so a reader that reads only its view's slots sees
// exactly that view (DESIGN.md has the argument).
//
// Writers use per-node mutexes with top-down lock coupling and preemptive
// splits. Splits only move keys right, and every node carries a B-link high
// key and right-sibling pointer, so a reader that raced a split simply
// follows the link.
//
// Every snapshot carries its slot's version word, which is what Silo-style
// phantom protection needs: a Handle captures (node slot, version) and stays
// valid until an insert or a split touches that leaf. Removing a dead key
// (DeleteIf), rebinding one (Replace) and copying the slots carry the
// version over unchanged: none changes what any reader is entitled to see.
//
// Every leaf slot also carries a stamp, a monotone word the tree only keeps
// and hands on to the halves of a split. The engine's serializability
// certifier stores in it the commit stamp of the latest transaction that saw
// a key missing from the leaf, so that whoever inserts into the leaf later is
// ordered after that reader (see Handle.Stamp).
package index

import (
	"bytes"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxKeys is the node fanout and a leaf's slot count. 64 keeps nodes around a
// few cache lines and splits rare, and lets a slot number fit a byte.
const maxKeys = 64

// node is an immutable tree node snapshot. A leaf's slots (at most maxKeys)
// are shared with the leaf's other views, and perm[:live] are the slots of
// its live keys in key order. Inner nodes fill keys (sorted separators) and
// children (len(children) == len(keys)+1). highKey bounds the node's key
// range from above (nil in the rightmost node of a level), and next points to
// the right sibling's slot. ver counts the inserts and splits the node's slot
// has seen; it never decreases within a slot.
//
// The field order is a cache layout: what a leaf lookup reads besides perm
// fills the first 64 bytes, and perm most of the next.
type node[V comparable] struct {
	slots    []entry[V]
	highKey  []byte
	ver      uint64
	live     uint8
	leaf     bool
	perm     [maxKeys]uint8
	next     *nodeRef[V]
	keys     [][]byte
	children []*nodeRef[V]
}

// entry is what a leaf slot holds; a key and its value share a cache line.
type entry[V comparable] struct {
	key []byte
	val V
}

// nodeRef is a stable slot holding the current snapshot of one logical
// node. Readers load ptr; writers lock mu, build a new snapshot, and store.
type nodeRef[V comparable] struct {
	ptr   atomic.Pointer[node[V]]
	mu    sync.Mutex
	stamp atomic.Uint64
}

// raise lifts the slot's stamp to at least s.
func (r *nodeRef[V]) raise(s uint64) {
	for {
		old := r.stamp.Load()
		if old >= s || r.stamp.CompareAndSwap(old, s) {
			return
		}
	}
}

// Handle identifies a leaf at one version for phantom validation: it is
// valid while no insert or split has touched the leaf's slot since.
type Handle[V comparable] struct {
	ref *nodeRef[V]
	ver uint64
}

func handleOf[V comparable](ref *nodeRef[V], n *node[V]) Handle[V] {
	return Handle[V]{ref: ref, ver: n.ver}
}

// Valid reports whether no key has entered the leaf since the handle was
// taken.
func (h Handle[V]) Valid() bool { return h.ref != nil && h.ref.ptr.Load().ver == h.ver }

// Stamp returns the leaf slot's stamp: the largest value RaiseStamp has
// published on this leaf, or on a leaf this one was split from.
//
// The protocol the stamp supports is a store-then-load pair on each side. A
// reader that relies on a key's absence calls RaiseStamp and then Valid; a
// writer inserts its key (which ends Valid for older handles) and then calls
// Stamp on the handle the insert returned. Whatever the interleaving, either
// the reader's validation fails or the writer sees the reader's stamp — also
// across a split, which installs the new version word before it copies the
// stamp to the new sibling.
func (h Handle[V]) Stamp() uint64 { return h.ref.stamp.Load() }

// RaiseStamp lifts the leaf slot's stamp to at least s.
func (h Handle[V]) RaiseStamp(s uint64) { h.ref.raise(s) }

// Slot returns the leaf slot's address as a hash key: equal for handles that
// reference the same leaf slot, and stable because slots are heap objects that never move. It is
// not a pointer and keeps nothing alive.
func (h Handle[V]) Slot() uintptr { return uintptr(unsafe.Pointer(h.ref)) }

// Tree is a concurrent B-link tree from byte-string keys to values of type
// V. The zero value is not usable; call New.
type Tree[V comparable] struct {
	root *nodeRef[V]
	size atomic.Int64
}

// New returns an empty tree.
func New[V comparable]() *Tree[V] {
	t := &Tree[V]{root: &nodeRef[V]{}}
	t.root.ptr.Store(&node[V]{leaf: true})
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return int(t.size.Load()) }

// past reports whether key falls beyond n's range (a concurrent split moved
// it right).
func (n *node[V]) past(key []byte) bool {
	return n.highKey != nil && bytes.Compare(key, n.highKey) >= 0
}

// full reports whether n must split before it can take another key.
func (n *node[V]) full() bool {
	if n.leaf {
		return n.live == maxKeys
	}
	return len(n.keys) == maxKeys
}

// at returns a leaf's i-th live entry in key order.
func (n *node[V]) at(i int) *entry[V] { return &n.slots[n.perm[i]] }

// search finds the insertion position of key among a leaf's live entries.
func (n *node[V]) search(key []byte) (int, bool) {
	lo, hi := 0, int(n.live)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.at(mid).key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < int(n.live) && bytes.Equal(n.at(lo).key, key)
	return lo, found
}

// childIndex picks the child covering key: the first separator greater than
// key. (Separators equal to key route right, since a split separator is the
// right node's first key.)
func (n *node[V]) childIndex(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descendLeaf walks lock-free from the root to the leaf covering key,
// following B-link pointers across racing splits.
func (t *Tree[V]) descendLeaf(key []byte) (*nodeRef[V], *node[V]) {
	ref := t.root
	n := ref.ptr.Load()
	for {
		for n.past(key) {
			ref = n.next
			n = ref.ptr.Load()
		}
		if n.leaf {
			return ref, n
		}
		ref = n.children[n.childIndex(key)]
		n = ref.ptr.Load()
	}
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	v, ok, _ := t.GetH(key)
	return v, ok
}

// GetH is Get plus the leaf handle for phantom validation; the handle is
// meaningful even on a miss (an insert of key would invalidate it).
func (t *Tree[V]) GetH(key []byte) (V, bool, Handle[V]) {
	ref, n := t.descendLeaf(key)
	i, found := n.search(key)
	h := handleOf(ref, n)
	if !found {
		var zero V
		return zero, false, h
	}
	return n.at(i).val, true, h
}

// Scan visits keys in [lo, hi) in ascending order (hi nil means unbounded),
// calling fn for each; fn returning false stops the scan. If onLeaf is
// non-nil it receives a handle for every leaf whose range overlaps the
// scan, including the final partially-scanned one — the node set for
// phantom protection. Within a leaf the scan yields exactly the view it
// loaded, however long fn takes.
func (t *Tree[V]) Scan(lo, hi []byte, onLeaf func(Handle[V]), fn func(key []byte, v V) bool) {
	ref, n := t.descendLeaf(lo)
	start, _ := n.search(lo)
	for {
		if onLeaf != nil {
			onLeaf(handleOf(ref, n))
		}
		slots := n.slots
		for _, s := range n.perm[start:n.live] {
			e := &slots[s]
			if hi != nil && bytes.Compare(e.key, hi) >= 0 {
				return
			}
			if !fn(e.key, e.val) {
				return
			}
		}
		if n.next == nil {
			return
		}
		if hi != nil && n.highKey != nil && bytes.Compare(n.highKey, hi) >= 0 {
			return
		}
		ref = n.next
		n = ref.ptr.Load()
		start = 0 // a right sibling's keys are at or past highKey, above lo
	}
}

// Insert adds key → v. It returns false (and leaves the tree unchanged) if
// key is already present.
func (t *Tree[V]) Insert(key []byte, v V) bool {
	_, inserted := t.InsertIfAbsent(key, v)
	return inserted
}

// InsertIfAbsent adds key → v if absent, returning (v, true); otherwise it
// returns the existing value and false.
func (t *Tree[V]) InsertIfAbsent(key []byte, v V) (V, bool) {
	existing, inserted, _, _ := t.InsertH(key, v)
	return existing, inserted
}

// InsertH is InsertIfAbsent plus the leaf handles before and after the
// insert. A transaction validating a node set can recognize its own insert:
// a tracked handle equal to before is refreshed to after; any other
// difference is a real conflict. On a duplicate, before and after are equal.
func (t *Tree[V]) InsertH(key []byte, v V) (existing V, inserted bool, before, after Handle[V]) {
	cur := t.root
	cur.mu.Lock()
	n := cur.ptr.Load()

	// Grow the tree if the root is full.
	if n.full() {
		leftRef, rightRef, sep := t.splitInto(n)
		newRoot := &node[V]{
			keys:     [][]byte{sep},
			children: []*nodeRef[V]{leftRef, rightRef},
			ver:      n.ver + 1, // a handle on the root as a leaf dies here
		}
		cur.ptr.Store(newRoot)
		if s := cur.stamp.Load(); s != 0 { // after the store: see Handle.Stamp
			leftRef.raise(s)
			rightRef.raise(s)
		}
		n = newRoot
	}

	for !n.leaf {
		idx := n.childIndex(key)
		childRef := n.children[idx]
		childRef.mu.Lock()
		child := childRef.ptr.Load()
		if child.full() {
			// Preemptive split: we hold the parent, so the parent copy and
			// child halves install atomically with respect to writers.
			rightRef, sep := splitChild(childRef, child)
			parent := n.withChildSplit(idx, sep, rightRef)
			cur.ptr.Store(parent)
			if bytes.Compare(key, sep) >= 0 {
				childRef.mu.Unlock()
				childRef = rightRef
				childRef.mu.Lock()
			}
			child = childRef.ptr.Load()
		}
		cur.mu.Unlock()
		cur, n = childRef, child
	}

	i, found := n.search(key)
	if found {
		existing = n.at(i).val
		cur.mu.Unlock()
		h := handleOf(cur, n)
		return existing, false, h, h
	}
	leaf := *n
	if len(n.slots) == cap(n.slots) {
		// No free slot: copy the live entries into a fresh array of maxKeys
		// slots. Order is kept, so i still holds.
		leaf = n.liveCopy(0, int(n.live), maxKeys)
	}
	copy(leaf.perm[i+1:leaf.live+1], leaf.perm[i:leaf.live])
	leaf.perm[i] = uint8(len(leaf.slots))
	leaf.slots = append(leaf.slots, entry[V]{key, v}) // below cap: never written
	leaf.live++
	leaf.ver++
	cur.ptr.Store(&leaf)
	cur.mu.Unlock()
	t.size.Add(1)
	return v, true, handleOf(cur, n), handleOf(cur, &leaf)
}

// lockLeaf returns the leaf covering key with its slot locked. Changing one
// entry of a leaf needs no other lock: the descent is the readers' lock-free
// one, and a split that moved key right in the meantime is followed through
// the B-link under the lock.
func (t *Tree[V]) lockLeaf(key []byte) (*nodeRef[V], *node[V]) {
	ref, _ := t.descendLeaf(key)
	for {
		ref.mu.Lock()
		n := ref.ptr.Load()
		switch {
		case n.past(key):
			ref.mu.Unlock()
			ref = n.next
		case !n.leaf: // the root grew between the descent and the lock
			ref.mu.Unlock()
			ref, _ = t.descendLeaf(key)
		default:
			return ref, n
		}
	}
}

// DeleteIf removes key while it still maps to v, reporting whether it did.
// It is for entries no reader can see any more (a reclaimed tombstone, an
// aborted insert): the leaf keeps its version, so the handles transactions
// hold on it stay valid. The key's slot stays used until the leaf's slots
// are next copied. Emptied leaves are kept (no merging), as in most
// production latch-free indexes.
func (t *Tree[V]) DeleteIf(key []byte, v V) bool {
	ref, n := t.lockLeaf(key)
	defer ref.mu.Unlock()
	i, found := n.search(key)
	if !found || n.at(i).val != v {
		return false
	}
	leaf := *n
	copy(leaf.perm[i:], leaf.perm[i+1:leaf.live])
	leaf.live--
	ref.ptr.Store(&leaf)
	t.size.Add(-1)
	return true
}

// Replace rebinds key from old to v, reporting whether key still mapped to
// old. The key set does not change, so the leaf keeps its version. The slot
// array is copied rather than a slot taken, so a leaf with no free slot can
// be rebound too. Rebinding is rare: only replay and checkpoint seeding do
// it, for a key the primary reclaimed and gave a new OID.
func (t *Tree[V]) Replace(key []byte, old, v V) bool {
	ref, n := t.lockLeaf(key)
	defer ref.mu.Unlock()
	i, found := n.search(key)
	if !found || n.at(i).val != old {
		return false
	}
	leaf := *n
	leaf.slots = append(make([]entry[V], 0, cap(n.slots)), n.slots...)
	leaf.slots[n.perm[i]].val = v
	ref.ptr.Store(&leaf)
	return true
}

// liveCopy returns a view of leaf n holding only its live entries [from, to),
// in key order, in a fresh slot array of capacity slots. The rest of the
// view is n's.
func (n *node[V]) liveCopy(from, to, slots int) node[V] {
	c := *n
	c.slots = make([]entry[V], to-from, slots)
	c.live = uint8(to - from)
	for i := from; i < to; i++ {
		c.slots[i-from] = *n.at(i)
		c.perm[i-from] = uint8(i - from)
	}
	return c
}

// splitChild splits a full child in place: the child's slot keeps the left
// half and a fresh slot gets the right half. Caller holds the child's lock.
func splitChild[V comparable](childRef *nodeRef[V], child *node[V]) (*nodeRef[V], []byte) {
	left, right, sep := splitNode(child)
	rightRef := &nodeRef[V]{}
	rightRef.ptr.Store(right)
	left.next = rightRef
	childRef.ptr.Store(left)
	if s := childRef.stamp.Load(); s != 0 { // after the store: see Handle.Stamp
		rightRef.raise(s)
	}
	return rightRef, sep
}

// splitInto splits a full root node into two fresh slots.
func (t *Tree[V]) splitInto(n *node[V]) (*nodeRef[V], *nodeRef[V], []byte) {
	left, right, sep := splitNode(n)
	rightRef := &nodeRef[V]{}
	rightRef.ptr.Store(right)
	left.next = rightRef
	leftRef := &nodeRef[V]{}
	leftRef.ptr.Store(left)
	return leftRef, rightRef, sep
}

// splitNode builds the two immutable halves of n. For a leaf the separator
// is the right half's first key (and stays in it), and each half gets a fresh
// slot array of its exact size: a half that takes no more inserts stays dense,
// and the first insert into one moves it to a full-size array. For an inner
// node the separator moves up.
func splitNode[V comparable](n *node[V]) (left, right *node[V], sep []byte) {
	if n.leaf {
		mid := int(n.live) / 2
		l, r := n.liveCopy(0, mid, mid), n.liveCopy(mid, int(n.live), int(n.live)-mid)
		sep = r.slots[0].key
		l.highKey = sep
		l.ver, r.ver = n.ver+1, n.ver+1
		return &l, &r, sep
	}
	mid := len(n.keys) / 2
	sep = n.keys[mid]
	left = &node[V]{
		keys:     append([][]byte(nil), n.keys[:mid]...),
		children: append([]*nodeRef[V](nil), n.children[:mid+1]...),
		highKey:  sep, next: n.next, ver: n.ver,
	}
	right = &node[V]{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*nodeRef[V](nil), n.children[mid+1:]...),
		highKey:  n.highKey, next: n.next, ver: n.ver,
	}
	return left, right, sep
}

// withChildSplit returns a copy of inner node n with separator sep and the
// new right sibling inserted after child idx.
func (n *node[V]) withChildSplit(idx int, sep []byte, rightRef *nodeRef[V]) *node[V] {
	return &node[V]{
		keys:     insertAt(n.keys, idx, sep),
		children: insertAt(n.children, idx+1, rightRef),
		highKey:  n.highKey,
		next:     n.next,
		ver:      n.ver,
	}
}

func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}
