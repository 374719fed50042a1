// Package proto reproduces the wire-registry bug shapes: the golden file
// next to this source freezes an older revision, and this revision has
// (a) a status inserted mid-iota — the real renumber hazard the live
// package's "appended ... to keep existing wire values stable" comments
// guard against by convention, (b) a brand-new unregistered status, (c) a
// message type reusing a retired value, and (d) two new messages
// colliding with each other.
package proto

// Status mirrors the real registry: iota-assigned, so mid-block edits
// shift everything below.
type Status uint16

const (
	StatusOK       Status = iota // want `golden entry status StatusGone \(wire value 5\) is no longer declared`
	StatusConflict
	StatusInserted   // want `takes wire value 2, which wire\.golden assigns to StatusOverloaded`
	StatusOverloaded // want `StatusOverloaded is renumbered: wire value 3 in code but 2 in wire\.golden`
	StatusNew        // want `StatusNew \(wire value 4\) is not in wire\.golden`
)

// ok: a blank placeholder keeps a retired value reserved and declares
// nothing.
const _ Status = 10

const (
	MsgBegin byte = iota + 1
	MsgCommit
	MsgReuse // want `MsgReuse reuses retired wire value 3 \(previously MsgOld\)`
)

const (
	MsgNewA byte = 9 // want `MsgNewA \(wire value 9\) is not in wire\.golden`
	MsgNewB byte = 9 // want `MsgNewB duplicates live wire value 9 already taken by MsgNewA`
)
