package proto

// ServerStats is the server-level counter set a MsgStats response carries.
type ServerStats struct {
	Conns         uint32 // current connections
	OpenTxns      uint32 // transactions currently holding a slot
	Commits       uint64 // positively acknowledged commits
	Aborts        uint64 // aborts, including conflict-failed commits
	GroupBatches  uint64 // group-commit wakeups
	GroupCommits  uint64 // commits acknowledged by those wakeups
	DurableOffset uint64 // engine durability horizon

	// Replication (primary side: shipping; replica side these stay 0 and
	// the replica's own progress is reported by its process).
	ReplSubscribers   uint32 // live replication subscriptions
	ReplBatches       uint64 // batches shipped across all subscribers
	ReplShippedOffset uint64 // highest offset shipped to any subscriber
	ReplAckedOffset   uint64 // highest watermark acknowledged by any subscriber

	// Checkpoints counts checkpoint frames served successfully.
	Checkpoints uint64

	// Sharding / two-phase-commit counters.
	PreparedTxns  uint32 // transactions currently parked in the prepared state
	ShardPrepares uint64 // prepare requests acknowledged
	ShardDecides  uint64 // decide requests applied (commit or abort)
}

// AppendServerStats appends s as a MsgStats response body: every field in
// declaration order, fixed width.
func AppendServerStats(b []byte, s *ServerStats) []byte {
	b = AppendU32(b, s.Conns)
	b = AppendU32(b, s.OpenTxns)
	b = AppendU64(b, s.Commits)
	b = AppendU64(b, s.Aborts)
	b = AppendU64(b, s.GroupBatches)
	b = AppendU64(b, s.GroupCommits)
	b = AppendU64(b, s.DurableOffset)
	b = AppendU32(b, s.ReplSubscribers)
	b = AppendU64(b, s.ReplBatches)
	b = AppendU64(b, s.ReplShippedOffset)
	b = AppendU64(b, s.ReplAckedOffset)
	b = AppendU64(b, s.Checkpoints)
	b = AppendU32(b, s.PreparedTxns)
	b = AppendU64(b, s.ShardPrepares)
	return AppendU64(b, s.ShardDecides)
}

// ServerStats decodes a MsgStats response body; check Err afterwards.
func (d *Dec) ServerStats() ServerStats {
	return ServerStats{
		Conns:             d.U32(),
		OpenTxns:          d.U32(),
		Commits:           d.U64(),
		Aborts:            d.U64(),
		GroupBatches:      d.U64(),
		GroupCommits:      d.U64(),
		DurableOffset:     d.U64(),
		ReplSubscribers:   d.U32(),
		ReplBatches:       d.U64(),
		ReplShippedOffset: d.U64(),
		ReplAckedOffset:   d.U64(),
		Checkpoints:       d.U64(),
		PreparedTxns:      d.U32(),
		ShardPrepares:     d.U64(),
		ShardDecides:      d.U64(),
	}
}
