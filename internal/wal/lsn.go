// Package wal implements ERMIA's scalable centralized log manager (§3.3).
//
// The log is the central point of coordination: every committing transaction
// acquires a totally ordered commit timestamp and reserves space for its log
// records with a single global atomic fetch-and-add. The LSN space is
// monotonic but not contiguous: the high bits of an LSN are an offset in a
// logical LSN space, and the lowest 4 bits name one of 16 modulo log
// segments, so sequence numbers translate to physical file locations with a
// constant-time table lookup (paper Figure 4a). Blocks that lose the race to
// open a new segment fall into dead zones that map to no disk location
// (Figure 4b); skip records close segments and absorb aborted transactions.
//
// Transactions accumulate log records in private buffers during forward
// processing and copy them into their reserved slice of the central ring
// buffer at pre-commit; a background flusher writes completed regions to the
// segment files in order and advances the durable horizon for group commit.
package wal

import "fmt"

// NumSegments is the number of modulo log segments in existence at any time,
// fixed at 16 as in the paper's prototype.
const NumSegments = 16

const segmentBits = 4

// Grain is the reservation alignment in bytes. Every log block is padded to
// a multiple of Grain so the flusher can track completion with a fixed array
// of per-grain tags.
const Grain = 64

// LSN is a log sequence number: a logical offset in the high 60 bits and a
// modulo segment number in the low 4 bits. Placing the segment number in the
// low-order bits preserves the total order of log offsets.
type LSN uint64

// InvalidLSN is the zero LSN; no valid block lives at offset zero.
const InvalidLSN LSN = 0

// MakeLSN combines a logical offset and a modulo segment number.
func MakeLSN(offset uint64, seg int) LSN {
	return LSN(offset<<segmentBits | uint64(seg)&(NumSegments-1))
}

// Offset returns the logical offset, the part of an LSN that orders
// transactions. Concurrency control compares offsets only.
func (l LSN) Offset() uint64 { return uint64(l) >> segmentBits }

// Segment returns the modulo segment number encoded in the LSN.
func (l LSN) Segment() int { return int(uint64(l) & (NumSegments - 1)) }

func (l LSN) String() string {
	return fmt.Sprintf("0x%x.%x", l.Offset(), l.Segment())
}

// Validity classifies an LSN against the current segment table (Figure 4a).
type Validity int

const (
	// Valid means the LSN maps to a live segment and file offset.
	Valid Validity = iota
	// TooOld means the LSN's modulo segment has been recycled since.
	TooOld
	// DeadZone means the offset fell between segments and maps to no
	// location on disk.
	DeadZone
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case TooOld:
		return "too old"
	default:
		return "dead zone"
	}
}

// Block types stored in block headers.
const (
	// BlockCommit carries a committed transaction's log records.
	BlockCommit uint8 = iota + 1
	// BlockSkip marks space claimed but not used: aborted transactions and
	// the record that closes a segment.
	BlockSkip
	// BlockOverflow carries part of an oversized write footprint, linked
	// backward from the final commit block.
	BlockOverflow
	// BlockCheckpointBegin marks a checkpoint's cut (§3.7).
	BlockCheckpointBegin
	// BlockCheckpointEnd is retired: it named a published checkpoint blob,
	// which recovery finds by listing storage instead. Old logs may still
	// hold one, and scans pass it by; the number is never reused.
	BlockCheckpointEnd
	// blockDead marks buffer space whose offsets map to no disk location.
	// It never reaches a file.
	blockDead
)

// headerSize is the fixed size of a block header on disk and in the buffer.
//
//	magic    uint16
//	type     uint8
//	_        uint8
//	size     uint32  total block size including header and padding
//	offset   uint64  logical offset of the block (sanity check)
//	prev     uint64  offset of the previous overflow block, or 0
//	plen     uint32  payload bytes actually written (size minus padding)
//	checksum uint32  FNV-1a over the payload, then header bytes [2:28];
//	                 detects torn tail blocks and damaged header fields
const headerSize = 32

const headerMagic uint16 = 0x5AFE

// fnvInit is the 32-bit FNV-1a offset basis.
const fnvInit uint32 = 2166136261

// fnvAdd extends a 32-bit FNV-1a hash with p.
func fnvAdd(h uint32, p []byte) uint32 {
	for _, c := range p {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Checksum returns the 32-bit FNV-1a hash of p — the same function block
// headers use for integrity, exported so sibling artifacts
// (checkpoint blobs) can share one checksum scheme.
func Checksum(p []byte) uint32 { return fnvAdd(fnvInit, p) }

// pad rounds n up to the next multiple of Grain.
func pad(n uint64) uint64 { return (n + Grain - 1) &^ (Grain - 1) }
