package main

import "fmt"

// metricDef names one metric. The tables below are the benchmark's metric
// list; BENCHMARK.json repeats them and a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"long_txn_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "core.op_us.get", unit: "us", better: "lower"},
	{name: "core.op_us.update", unit: "us", better: "lower"},
	{name: "core.op_us.insert", unit: "us", better: "lower"},
	{name: "core.op_us.scan", unit: "us", better: "lower"},
	{name: "core.op_us.commit", unit: "us", better: "lower"},
	{name: "core.abort_ratio.ww", unit: "ratio", better: "lower"},
	{name: "core.abort_ratio.ssn", unit: "ratio", better: "lower"},
	{name: "core.abort_ratio.phantom", unit: "ratio", better: "lower"},
	{name: "core.recover_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "index.get_ns", unit: "ns", better: "lower"},
	{name: "index.insert_ns", unit: "ns", better: "lower"},
	{name: "index.scan_ns_per_key", unit: "ns", better: "lower"},
	{name: "mvcc.head_ns", unit: "ns", better: "lower"},
	{name: "mvcc.install_ns", unit: "ns", better: "lower"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.writes_per_commit", unit: "count", better: "lower"},
	{name: "wal.write_us", unit: "us", better: "lower"},
	{name: "wal.commits_per_sync", unit: "count", better: "higher"},
	{name: "wal.sync_us.p50", unit: "us", better: "lower"},
	{name: "wal.sync_us.p95", unit: "us", better: "lower"},
	{name: "wal.reserve_ns", unit: "ns", better: "lower"},
	{name: "server.commits_per_batch", unit: "count", better: "higher"},
	{name: "server.commit_wait_us", unit: "us", better: "lower"},
	{name: "client.rtt_us.begin", unit: "us", better: "lower"},
	{name: "client.rtt_us.get", unit: "us", better: "lower"},
	{name: "client.rtt_us.update", unit: "us", better: "lower"},
	{name: "client.rtt_us.insert", unit: "us", better: "lower"},
	{name: "client.rtt_us.scan", unit: "us", better: "lower"},
	{name: "client.rtt_us.commit", unit: "us", better: "lower"},
	{name: "client.wire_tax_us", unit: "us", better: "lower"},
	{name: "client.requests_per_txn", unit: "count", better: "lower"},
	{name: "proto.bytes_per_txn", unit: "B", better: "lower"},
	{name: "proto.conn_writes_per_txn", unit: "count", better: "lower"},
	{name: "proto.frame_ns", unit: "ns", better: "lower"},
	{name: "shard.cross_share", unit: "ratio", better: "lower"},
	{name: "shard.fast_commit_us", unit: "us", better: "lower"},
	{name: "shard.cross_commit_us", unit: "us", better: "lower"},
	{name: "shard.in_doubt", unit: "count", better: "lower"},
	{name: "trace.child_coverage", unit: "ratio", better: "higher"},
	{name: "trace_overhead", unit: "ratio", better: "lower"},
}

// counters is what is read at both edges of the measured time; the layer
// metrics are ratios of the differences.
type counters struct {
	storage                            storageCounts
	clientNet, serverNet               netCounts
	engCommits, engAborts              uint64
	wwAborts, ssnAborts, phantomAborts uint64
	groupBatches, groupCommits         uint64
	requests                           uint64 // client pool round trips
	fast, cross                        uint64
}

func (inst *instance) readCounters() counters {
	var c counters
	for _, s := range inst.storage {
		c.storage = c.storage.add(s.counts())
	}
	if inst.clientNet != nil {
		c.clientNet, c.serverNet = inst.clientNet.counts(), inst.serverNet.counts()
	}
	for _, db := range inst.cores {
		st := db.Stats()
		c.engCommits += st.Commits.Load()
		c.engAborts += st.Aborts.Load()
		c.wwAborts += st.WWAborts.Load()
		c.ssnAborts += st.SerialAborts.Load()
		c.phantomAborts += st.PhantomAborts.Load()
	}
	for _, srv := range inst.servers {
		st := srv.Stats()
		c.groupBatches += st.GroupBatches
		c.groupCommits += st.GroupCommits
	}
	for _, pool := range inst.pools {
		c.requests += pool.Stats().Requests
	}
	if inst.router != nil {
		c.fast, c.cross = inst.router.CommitCounts()
		for _, st := range inst.router.PoolStats() {
			c.requests += st.Requests
		}
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerReport is the per-layer metric values of one traced run plus the
// bases they were divided by, for printing.
type layerReport struct {
	values map[string]float64
	bases  map[string]string
}

// layerMetrics turns a traced run into the per-layer numbers. before and
// after bracket the measured time; res is its load result; plainRate is the
// untraced reference rate measured just before in the same process.
func layerMetrics(inst *instance, before, after counters, res *loadResult, plainRate float64, probes probeResult) layerReport {
	v := map[string]float64{}
	commits := float64(res.committed(nil))

	client := inst.clientTrace.totals()
	engine := client // embedded: the caller's spans are the engine's
	wire := len(inst.servers) > 0
	if wire {
		engine = inst.engineTrace.totals()
	}
	for _, op := range []int{opGet, opUpdate, opInsert, opScan, opCommit} {
		v["core.op_us."+opNames[op]] = engine.agg[op].meanUs()
	}
	if wire {
		var clientNs, engineNs, ops uint64
		for _, op := range []int{opBegin, opGet, opUpdate, opInsert, opScan, opCommit} {
			v["client.rtt_us."+opNames[op]] = client.agg[op].meanUs()
			if op != opCommit {
				clientNs += client.agg[op].ns
				engineNs += engine.agg[op].ns
				ops += client.agg[op].n
			}
		}
		v["client.wire_tax_us"] = ratio(float64(clientNs)-float64(engineNs), float64(ops)) / 1e3
		v["server.commit_wait_us"] = ratio(float64(client.agg[opCommit].ns)-float64(engine.agg[opCommit].ns),
			float64(client.agg[opCommit].n)) / 1e3
		net := after.clientNet.sub(before.clientNet)
		srvNet := after.serverNet.sub(before.serverNet)
		v["proto.bytes_per_txn"] = ratio(float64(net.readBytes+net.writeBytes), commits)
		v["proto.conn_writes_per_txn"] = ratio(float64(net.writes+srvNet.writes), commits)
		v["client.requests_per_txn"] = ratio(float64(after.requests-before.requests), commits)
		v["server.commits_per_batch"] = ratio(float64(after.groupCommits-before.groupCommits),
			float64(after.groupBatches-before.groupBatches))
	}
	v["trace.child_coverage"] = ratio(float64(client.childNs), float64(client.agg[opTxn].ns))

	attempts := float64(after.engCommits - before.engCommits + after.engAborts - before.engAborts)
	v["core.abort_ratio.ww"] = ratio(float64(after.wwAborts-before.wwAborts), attempts)
	v["core.abort_ratio.ssn"] = ratio(float64(after.ssnAborts-before.ssnAborts), attempts)
	v["core.abort_ratio.phantom"] = ratio(float64(after.phantomAborts-before.phantomAborts), attempts)
	if inst.recoverTime > 0 {
		v["core.recover_mb_per_s"] = float64(inst.recoveredBytes) / 1e6 / inst.recoverTime.Seconds()
	}

	st := after.storage.sub(before.storage)
	v["wal.bytes_per_commit"] = ratio(float64(st.writeBytes), commits)
	v["wal.writes_per_commit"] = ratio(float64(st.writes), commits)
	v["wal.write_us"] = ratio(float64(st.writeNs), float64(st.writes)) / 1e3
	if st.syncs > 0 {
		v["wal.commits_per_sync"] = commits / float64(st.syncs)
	}
	var syncs Hist
	for _, s := range inst.storage {
		s.mu.Lock()
		syncs.Merge(&s.syncNs)
		s.mu.Unlock()
	}
	v["wal.sync_us.p50"] = syncs.Quantile(0.50) / 1e3
	v["wal.sync_us.p95"] = syncs.Quantile(0.95) / 1e3

	if inst.router != nil {
		fast, cross := float64(after.fast-before.fast), float64(after.cross-before.cross)
		v["shard.cross_share"] = ratio(cross, fast+cross)
		v["shard.fast_commit_us"] = client.commitByClass[classFast].meanUs()
		v["shard.cross_commit_us"] = client.commitByClass[classCross].meanUs()
		v["shard.in_doubt"] = float64(inst.inDoubt)
	}

	v["index.get_ns"] = probes.indexGetNs
	v["index.insert_ns"] = probes.indexInsertNs
	v["index.scan_ns_per_key"] = probes.indexScanNsPerKey
	v["mvcc.head_ns"] = probes.mvccHeadNs
	v["mvcc.install_ns"] = probes.mvccInstallNs
	v["wal.reserve_ns"] = probes.walReserveNs
	v["proto.frame_ns"] = probes.protoFrameNs

	v["trace_overhead"] = 1 - ratio(res.rate(nil), plainRate)

	bases := map[string]string{
		"core.abort_ratio.ww":      baseOf(attempts, "engine attempts"),
		"core.abort_ratio.ssn":     baseOf(attempts, "engine attempts"),
		"core.abort_ratio.phantom": baseOf(attempts, "engine attempts"),
		"wal.bytes_per_commit":     baseOf(commits, "commits"),
		"wal.writes_per_commit":    baseOf(commits, "commits"),
		"wal.write_us":             baseOf(float64(st.writes), "writes"),
		"wal.commits_per_sync":     baseOf(float64(st.syncs), "syncs"),
		"wal.sync_us.p50":          baseOf(float64(syncs.Count()), "syncs"),
		"wal.sync_us.p95":          baseOf(float64(syncs.Count()), "syncs"),
		"server.commits_per_batch": baseOf(float64(after.groupBatches-before.groupBatches), "batches"),
		"proto.bytes_per_txn":      baseOf(commits, "commits"),
		"client.requests_per_txn":  baseOf(commits, "commits"),
		"shard.cross_share":        baseOf(float64(after.fast-before.fast+after.cross-before.cross), "router commits"),
		"trace.child_coverage":     baseOf(float64(client.agg[opTxn].n), "txn spans"),
		"trace_overhead":           baseOf(plainRate, "txn/s untraced"),
	}
	for _, op := range []int{opGet, opUpdate, opInsert, opScan, opCommit} {
		bases["core.op_us."+opNames[op]] = baseOf(float64(engine.agg[op].n), "calls")
	}
	return layerReport{values: v, bases: bases}
}

func baseOf(n float64, what string) string { return fmt.Sprintf("of %.0f %s", n, what) }
