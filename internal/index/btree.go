// Package index implements the concurrent ordered index ERMIA and the Silo
// baseline use for tables (the paper uses Masstree; see DESIGN.md for why
// this reproduction substitutes a copy-on-write B-link tree).
//
// Readers are lock-free: every node is an immutable snapshot behind an
// atomic pointer, so a reader never observes a torn node and never blocks.
// Writers use per-node mutexes with top-down lock coupling and preemptive
// splits. Splits only move keys right, and every node carries a B-link high
// key and right-sibling pointer, so a reader that raced a split simply
// follows the link.
//
// Every snapshot carries its slot's version word, which is what Silo-style
// phantom protection needs: a Handle captures (node slot, version) and stays
// valid until an insert or a split touches that leaf. Removing a dead key
// (DeleteIf) and rebinding one (Replace) carry the version over unchanged:
// neither changes what any reader is entitled to see.
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

// maxKeys is the node fanout. 64 keeps nodes around a few cache lines and
// splits rare.
const maxKeys = 64

// node is an immutable tree node snapshot. Leaf nodes fill vals; inner
// nodes fill children (len(children) == len(keys)+1). highKey bounds the
// node's key range from above (nil in the rightmost node of a level), and
// next points to the right sibling's slot. ver counts the inserts and splits
// the node's slot has seen; it never decreases within a slot.
type node[V comparable] struct {
	keys     [][]byte
	vals     []V
	children []*nodeRef[V]
	highKey  []byte
	next     *nodeRef[V]
	ver      uint64
	leaf     bool
}

// nodeRef is a stable slot holding the current snapshot of one logical
// node. Readers load ptr; writers lock mu, copy, and store.
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

// Same reports whether two handles reference the same leaf slot.
func (h Handle[V]) Same(o Handle[V]) bool { return h.ref == o.ref }

// Slot returns the leaf slot's address as a hash key: equal for handles that
// are Same, and stable because slots are heap objects that never move. It is
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

// search finds the insertion position of key in n.keys.
func (n *node[V]) search(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
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
	return n.vals[i], true, h
}

// Scan visits keys in [lo, hi) in ascending order (hi nil means unbounded),
// calling fn for each; fn returning false stops the scan. If onLeaf is
// non-nil it receives a handle for every leaf whose range overlaps the
// scan, including the final partially-scanned one — the node set for
// phantom protection.
func (t *Tree[V]) Scan(lo, hi []byte, onLeaf func(Handle[V]), fn func(key []byte, v V) bool) {
	ref, n := t.descendLeaf(lo)
	for {
		if onLeaf != nil {
			onLeaf(handleOf(ref, n))
		}
		start, _ := n.search(lo)
		for i := start; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
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
	if len(n.keys) == maxKeys {
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
		if len(child.keys) == maxKeys {
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
		existing = n.vals[i]
		cur.mu.Unlock()
		h := handleOf(cur, n)
		return existing, false, h, h
	}
	leaf := &node[V]{
		keys:    insertAt(n.keys, i, key),
		vals:    insertAt(n.vals, i, v),
		highKey: n.highKey,
		next:    n.next,
		ver:     n.ver + 1,
		leaf:    true,
	}
	cur.ptr.Store(leaf)
	cur.mu.Unlock()
	t.size.Add(1)
	return v, true, handleOf(cur, n), handleOf(cur, leaf)
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
// hold on it stay valid. Emptied leaves are kept (no merging), as in most
// production latch-free indexes.
func (t *Tree[V]) DeleteIf(key []byte, v V) bool {
	ref, n := t.lockLeaf(key)
	defer ref.mu.Unlock()
	i, found := n.search(key)
	if !found || n.vals[i] != v {
		return false
	}
	ref.ptr.Store(&node[V]{
		keys:    removeAt(n.keys, i),
		vals:    removeAt(n.vals, i),
		highKey: n.highKey,
		next:    n.next,
		ver:     n.ver,
		leaf:    true,
	})
	t.size.Add(-1)
	return true
}

// Replace rebinds key from old to v, reporting whether key still mapped to
// old. The key set does not change, so the leaf keeps its version.
func (t *Tree[V]) Replace(key []byte, old, v V) bool {
	ref, n := t.lockLeaf(key)
	defer ref.mu.Unlock()
	i, found := n.search(key)
	if !found || n.vals[i] != old {
		return false
	}
	vals := append([]V(nil), n.vals...)
	vals[i] = v
	ref.ptr.Store(&node[V]{
		keys:    n.keys,
		vals:    vals,
		highKey: n.highKey,
		next:    n.next,
		ver:     n.ver,
		leaf:    true,
	})
	return true
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
// is the right half's first key (and stays in it); for an inner node the
// separator moves up.
func splitNode[V comparable](n *node[V]) (left, right *node[V], sep []byte) {
	mid := len(n.keys) / 2
	if n.leaf {
		sep = n.keys[mid]
		left = &node[V]{
			keys:    append([][]byte(nil), n.keys[:mid]...),
			vals:    append([]V(nil), n.vals[:mid]...),
			highKey: sep, next: n.next, ver: n.ver + 1, leaf: true,
		}
		right = &node[V]{
			keys:    append([][]byte(nil), n.keys[mid:]...),
			vals:    append([]V(nil), n.vals[mid:]...),
			highKey: n.highKey, next: n.next, ver: n.ver + 1, leaf: true,
		}
		return left, right, sep
	}
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

func removeAt[T any](s []T, i int) []T {
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}
