#!/bin/sh
# check.sh — the full local gate: vet, the repo-specific static-analysis
# suite, build, tests, the nested benchmark module's tests and smoke run,
# and a short race pass over the packages with real concurrency (log
# manager, both engines, the lock-free index and indirection arrays, epoch
# manager). CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== ermia-vet (epochguard, errclass, hotalloc, lockorder, nodeterminism, txnlifecycle) =="
if ! go run ./cmd/ermia-vet ./...; then
	echo "" >&2
	echo "check.sh: ermia-vet found invariant violations (listed above)." >&2
	echo "Fix each finding or suppress a justified exception with" >&2
	echo "'//ermia:allow <analyzer> <reason>' on the offending line." >&2
	echo "See DESIGN.md, section 'Static analysis'." >&2
	exit 1
fi

echo "== budgets (AllocsPerRun on hot-path encode/decode/mvcc and whole transactions; syncs and forced waits per cross-shard commit) =="
# The hotalloc analyzer above gates //ermia:hotpath functions to zero heap
# escapes at compile time; these tests pin the per-op allocation count of
# the functions whose allocations are intentional (frame read/write,
# version creation) so they cannot silently grow; TestReplyAllocBudget pins
# a response appended to a warm session buffer at zero.
go test -count=1 -run 'TestAllocBudgets|TestReplyAllocBudget' \
	./internal/proto/ ./internal/mvcc/ ./internal/server/ ./internal/client/
# A whole engine transaction on a warm worker allocates only what outlives
# it (the Txn, a Version per write, the insert's key and leaf view); its
# read, write and node sets and its log buffer come from the worker context.
# BenchmarkTxnLifecycle, BenchmarkRunGC and BenchmarkScanPastDeleted in the
# same package print B/op.
go test -count=1 -run 'TestTxnAllocBudget' ./internal/core/
# The same idea one level up: a cross-shard commit over modelled commit
# devices may cost three syncs (two prepare records, the coordinator's C),
# keep its caller waiting for two, and allocate within its budget.
# BenchmarkCommitCross in the same package prints the numbers.
go test -count=1 -run 'TestCommitCrossBudget' ./internal/shard/

echo "== txnid x50 (the TID table's inquiry races, repeated) =="
# TestConcurrentInquire races Inquire against allocate/release on one slot;
# its window is a few instructions wide, so one pass proves little.
go test -count=50 ./internal/txnid/

echo "== client hold timer x20 (-race) =="
# A held Commit or Abort waits in the connection's write buffer for the next
# send or for the 1 ms hold timer; the timer, send and fail race on wmu.
go test -race -count=20 -run 'TestHold|TestBeginCostsNoWrite' ./internal/client/

echo "== go build =="
go build ./...

echo "== go test =="
if ! go test ./...; then
	echo "" >&2
	echo "check.sh: tests failed (listed above). A TestWireRegistry failure for a" >&2
	echo "genuinely new message or status means wire.golden needs appending: run" >&2
	echo "'go test ./internal/proto -run TestWireRegistry -update' and commit the result." >&2
	exit 1
fi

echo "== repository benchmark (nested module: its tests, then every workload at smoke size) =="
# benchmark/ is its own module (ermia/benchmark, replace ermia => ../), so
# the build and test above do not reach it: an internal/ API change can
# break it unnoticed. Its tests and a smoke run of all four workloads,
# untraced and traced with every correctness check on, close that gap.
(cd benchmark && go test ./...)
bash benchmark/run.sh -smoke

echo "== go test -race (core, silo, index, mvcc, wal, epoch, engine, server, client, repl, faultconn, query, shard; -short) =="
# Includes the worker-context reuse tests (TestTxnUseAfterFinish,
# TestTxnTwoLiveOnOneSlot, TestShardPreparedKeepsItsWriteSet) and the GC
# equivalence tests (TestGCEquivalence*, TestReplicaGCFollowsTheApplier),
# whose point is that recycled arrays and list-driven pruning stay race-free;
# and the index-entry reclamation races — the collector sealing an OID under a
# re-insert (TestReclaimRacesReinsert), an aborting insert under a committing
# one (TestAbortedInsertNeverLosesACommittedOne), the SSN history property
# with the collector running beside it (TestSSNHistoryWithReclamation), and
# the index's conditional delete and rebind under lock-free readers
# (index.TestConcurrentDeleteIfReplace); and the index's shared leaf slots: a
# paused scan against every leaf change (index.TestScanYieldsItsView) and
# NEW-ORDER-shaped tail-insert/head-delete churn (index.TestNewOrderChurn).
# Silo is here because its committers share the wal's lock-free reservation
# and ring with the epoch ticker's flush.
go test -race -short -count=1 ./internal/core/ ./internal/silo/ ./internal/index/ ./internal/mvcc/ \
	./internal/wal/ ./internal/epoch/ \
	./internal/engine/ ./internal/server/ ./internal/client/ ./internal/repl/ \
	./internal/faultconn/ ./internal/query/ ./internal/shard/
# Not -short: the Delivery-heavy run that keeps the NEW-ORDER index flat.
go test -race -count=1 -run TestIndexLenFlatUnderDelivery ./internal/tpcc/

echo "== nemesis smoke (fixed seeds, -race) =="
# A bounded chaos sweep over two topologies on one fixture: every seed
# replays a deterministic fault schedule (partitions, cuts, crashes,
# supervised failovers) against a primary + replica cluster under retrying
# load, and must lose no acked commit, show no snapshot regression, and
# never ack writes under one epoch on two primaries. The shard topology
# (TestShardNemesis*) faults a two-shard fleet + 2PC router, crashing the
# coordinator between prepare and decision, and must conserve cross-shard
# balance totals, keep every acked transfer, and drain the decision log
# after healing. A failing seed's schedule is printed by the test; replay
# it with nemesis.Run(nemesis.Config{Seed: <seed>}) or
# nemesis.RunShard(nemesis.ShardConfig{Seed: <seed>}).
go test -race -count=1 ./internal/nemesis/

echo "== fuzz smoke (FuzzCheckpointBlob, FuzzDecodeRecord, 10s each) =="
# The other fuzz targets' seed corpora already run inside `go test` above;
# these two get a short mutation run locally too because their attack
# surface (replica seeding) accepts bytes straight off the wire: the blob
# image, and the record decoder that parses its body.
go test ./internal/core/ -run='^$' -fuzz='^FuzzCheckpointBlob$' -fuzztime=10s
go test ./internal/core/ -run='^$' -fuzz='^FuzzDecodeRecord$' -fuzztime=10s

echo "== replication soak (30s, -race) =="
ERMIA_REPL_SOAK=30s go test -race -count=1 -run TestReplicationSoak ./internal/repl/

echo "ok: all checks passed"
