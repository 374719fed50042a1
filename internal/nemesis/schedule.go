// Fault-schedule generation for the nemesis harnesses. The whole schedule
// derives from the run's seed up front, so a failing seed replays the same
// fault sequence byte for byte; this file must therefore stay free of
// clocks and unseeded randomness.
//
//ermia:deterministic
package nemesis

import (
	"fmt"
	"time"

	"ermia/internal/xrand"
)

type action int

// Network faults, which the fixture applies on its own, come first; the
// rest are node faults, which it passes to the topology.
const (
	actCut                action = iota // sever one directed link a few bytes into a frame
	actPartition                        // from <-> to partition, then heal
	actIsolate                          // from cut off from every endpoint, then heal
	actLatency                          // latency flutter on one directed link, then reset
	actCrash                            // primary server crash + restart under its old epoch
	actShardCrash                       // participant crash + restart from its last sync
	actShardCrashUnsynced               // the same, with its syncs held until a transfer commits regardless
	actCoordCrashPrepare                // coordinator dies post-prepare, recovers after dur
	actCoordCrashDecision               // coordinator dies post-decision, recovers after dur
)

type event struct {
	gap    time.Duration // sleep before applying
	act    action
	dur    time.Duration // how long the fault holds before healing
	from   string        // link and node endpoints of network faults
	to     string
	nbytes int64 // actCut: bytes allowed through before the cut
	lat    time.Duration
	shard  int // participant index for shard-scoped faults
	desc   string
}

// schedule draws events until their gaps and durations fill total. Each
// event starts with its gap and a percentile draw; pick fills in the rest.
func schedule(rng *xrand.Rand, total time.Duration, pick func(ev *event, p int)) []event {
	var evs []event
	var elapsed time.Duration
	for elapsed < total {
		ev := event{gap: time.Duration(10+rng.Intn(50)) * time.Millisecond}
		pick(&ev, rng.Intn(100))
		evs = append(evs, ev)
		elapsed += ev.gap + ev.dur
	}
	return evs
}

func (ev *event) cut(rng *xrand.Rand, links [][2]string) {
	l := links[rng.Intn(len(links))]
	ev.act, ev.from, ev.to = actCut, l[0], l[1]
	ev.nbytes = int64(1 + rng.Intn(128))
	ev.desc = fmt.Sprintf("cut %s->%s after %dB", ev.from, ev.to, ev.nbytes)
}

func (ev *event) partition(from, to string, dur time.Duration) {
	ev.act, ev.from, ev.to, ev.dur = actPartition, from, to, dur
	ev.desc = fmt.Sprintf("partition %s<->%s %v", from, to, dur)
}

func (ev *event) latency(rng *xrand.Rand, links [][2]string) {
	l := links[rng.Intn(len(links))]
	ev.act, ev.from, ev.to = actLatency, l[0], l[1]
	ev.lat = time.Duration(200+rng.Intn(1800)) * time.Microsecond
	ev.dur = time.Duration(30+rng.Intn(120)) * time.Millisecond
	ev.desc = fmt.Sprintf("latency %s->%s %v for %v", ev.from, ev.to, ev.lat, ev.dur)
}

// genSchedule derives the primary/replica fault schedule from the seed.
// Durations of the failover-inducing faults straddle the supervisor's
// silence timeout so some runs promote and some merely flap.
func genSchedule(seed uint64, total time.Duration) []event {
	rng := xrand.New(seed ^ 0x6e656d65736973) // "nemesis"
	links := [][2]string{
		{epClient, epPrimary}, {epPrimary, epClient},
		{epReplica, epPrimary}, {epPrimary, epReplica},
		{epClient, epBackup}, {epBackup, epClient},
	}
	return schedule(rng, total, func(ev *event, p int) {
		switch {
		case p < 30:
			ev.cut(rng, links)
		case p < 45:
			ev.partition(epClient, epPrimary, time.Duration(40+rng.Intn(160))*time.Millisecond)
		case p < 60:
			ev.partition(epPrimary, epReplica, time.Duration(80+rng.Intn(320))*time.Millisecond)
		case p < 72:
			ev.act, ev.from = actIsolate, epPrimary
			ev.dur = time.Duration(200+rng.Intn(300)) * time.Millisecond
			ev.desc = fmt.Sprintf("isolate %s %v", ev.from, ev.dur)
		case p < 85:
			ev.latency(rng, links)
		default:
			ev.act = actCrash
			ev.dur = time.Duration(40+rng.Intn(120)) * time.Millisecond
			ev.desc = fmt.Sprintf("crash primary, down %v", ev.dur)
		}
	})
}

// genShardSchedule derives the shard-nemesis fault schedule from the seed.
// Coordinator crashes land on both sides of the commit point so some runs
// must presume abort and some must drive a logged commit forward.
func genShardSchedule(seed uint64, total time.Duration) []event {
	rng := xrand.New(seed ^ 0x7368617264) // "shard"
	links := [][2]string{
		{epRouter, epShard(0)}, {epShard(0), epRouter},
		{epRouter, epShard(1)}, {epShard(1), epRouter},
	}
	return schedule(rng, total, func(ev *event, p int) {
		switch {
		case p < 22:
			ev.cut(rng, links)
		case p < 40:
			to := epShard(rng.Intn(2))
			ev.partition(epRouter, to, time.Duration(40+rng.Intn(160))*time.Millisecond)
		case p < 52:
			ev.latency(rng, links)
		case p < 72:
			ev.act, ev.shard = actShardCrash, rng.Intn(2)
			ev.dur = time.Duration(40+rng.Intn(160)) * time.Millisecond
			ev.desc = fmt.Sprintf("crash shard%d, down %v", ev.shard, ev.dur)
			if p >= 64 {
				ev.act = actShardCrashUnsynced
				ev.desc = fmt.Sprintf("crash shard%d holding its syncs, down %v", ev.shard, ev.dur)
			}
		case p < 86:
			ev.act = actCoordCrashPrepare
			ev.dur = time.Duration(50+rng.Intn(200)) * time.Millisecond
			ev.desc = fmt.Sprintf("coordinator crash after prepare, recover in %v", ev.dur)
		default:
			ev.act = actCoordCrashDecision
			ev.dur = time.Duration(50+rng.Intn(200)) * time.Millisecond
			ev.desc = fmt.Sprintf("coordinator crash after decision, recover in %v", ev.dur)
		}
	})
}
