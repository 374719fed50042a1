// Fault-schedule generation for the nemesis harness. The whole schedule
// derives from Config.Seed up front, so a failing seed replays the same
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

const (
	actCut             action = iota // sever one directed link a few bytes into a frame
	actPartitionClient               // client <-> primary partition, then heal
	actPartitionRepl                 // primary <-> replica partition, then heal
	actIsolatePrimary                // primary cut off from everyone (failover trigger)
	actLatency                       // latency flutter on one directed link, then reset
	actCrash                         // primary server crash + restart under its old epoch
)

type event struct {
	gap    time.Duration // sleep before applying
	act    action
	dur    time.Duration // how long the fault holds before healing
	from   string        // directed-link faults
	to     string
	nbytes int64 // actCut: bytes allowed through before the cut
	lat    time.Duration
	shard  int // shard-nemesis: participant index for shard-scoped faults
	desc   string
}

// genSchedule derives the whole fault schedule from the seed. Durations of
// the failover-inducing faults straddle the supervisor's silence timeout so
// some runs promote and some merely flap.
func genSchedule(seed uint64, total time.Duration) []event {
	rng := xrand.New(seed ^ 0x6e656d65736973) // "nemesis"
	links := [][2]string{
		{epClient, epPrimary}, {epPrimary, epClient},
		{epReplica, epPrimary}, {epPrimary, epReplica},
		{epClient, epBackup}, {epBackup, epClient},
	}
	var evs []event
	var elapsed time.Duration
	for elapsed < total {
		ev := event{gap: time.Duration(10+rng.Intn(50)) * time.Millisecond}
		switch p := rng.Intn(100); {
		case p < 30:
			l := links[rng.Intn(len(links))]
			ev.act, ev.from, ev.to = actCut, l[0], l[1]
			ev.nbytes = int64(1 + rng.Intn(128))
			ev.desc = fmt.Sprintf("cut %s->%s after %dB", ev.from, ev.to, ev.nbytes)
		case p < 45:
			ev.act = actPartitionClient
			ev.dur = time.Duration(40+rng.Intn(160)) * time.Millisecond
			ev.desc = fmt.Sprintf("partition client<->primary %v", ev.dur)
		case p < 60:
			ev.act = actPartitionRepl
			ev.dur = time.Duration(80+rng.Intn(320)) * time.Millisecond
			ev.desc = fmt.Sprintf("partition primary<->replica %v", ev.dur)
		case p < 72:
			ev.act = actIsolatePrimary
			ev.dur = time.Duration(200+rng.Intn(300)) * time.Millisecond
			ev.desc = fmt.Sprintf("isolate primary %v", ev.dur)
		case p < 85:
			l := links[rng.Intn(len(links))]
			ev.act, ev.from, ev.to = actLatency, l[0], l[1]
			ev.lat = time.Duration(200+rng.Intn(1800)) * time.Microsecond
			ev.dur = time.Duration(30+rng.Intn(120)) * time.Millisecond
			ev.desc = fmt.Sprintf("latency %s->%s %v for %v", ev.from, ev.to, ev.lat, ev.dur)
		default:
			ev.act = actCrash
			ev.dur = time.Duration(40+rng.Intn(120)) * time.Millisecond
			ev.desc = fmt.Sprintf("crash primary, down %v", ev.dur)
		}
		evs = append(evs, ev)
		elapsed += ev.gap + ev.dur
	}
	return evs
}

// ---- shard-nemesis schedule ----

// Additional actions used only by the shard-nemesis schedule. They reuse
// the event struct; ev.shard selects the participant for shard-scoped
// faults.
const (
	actPartition          action = iota + 100 // generic from<->to partition, then heal
	actShardCrash                             // participant crash + restart from its last sync
	actShardCrashUnsynced                     // the same, with its syncs held until a transfer commits regardless
	actCoordCrashPrepare                      // coordinator dies post-prepare, recovers after dur
	actCoordCrashDecision                     // coordinator dies post-decision, recovers after dur
)

// genShardSchedule derives the shard-nemesis fault schedule from the seed.
// Coordinator crashes land on both sides of the commit point so some runs
// must presume abort and some must drive a logged commit forward.
func genShardSchedule(seed uint64, total time.Duration) []event {
	rng := xrand.New(seed ^ 0x7368617264) // "shard"
	links := [][2]string{
		{epRouter, epShard0}, {epShard0, epRouter},
		{epRouter, epShard1}, {epShard1, epRouter},
	}
	var evs []event
	var elapsed time.Duration
	for elapsed < total {
		ev := event{gap: time.Duration(10+rng.Intn(50)) * time.Millisecond}
		switch p := rng.Intn(100); {
		case p < 22:
			l := links[rng.Intn(len(links))]
			ev.act, ev.from, ev.to = actCut, l[0], l[1]
			ev.nbytes = int64(1 + rng.Intn(128))
			ev.desc = fmt.Sprintf("cut %s->%s after %dB", ev.from, ev.to, ev.nbytes)
		case p < 40:
			ev.act, ev.from, ev.to = actPartition, epRouter, epShard(rng.Intn(2))
			ev.dur = time.Duration(40+rng.Intn(160)) * time.Millisecond
			ev.desc = fmt.Sprintf("partition %s<->%s %v", ev.from, ev.to, ev.dur)
		case p < 52:
			l := links[rng.Intn(len(links))]
			ev.act, ev.from, ev.to = actLatency, l[0], l[1]
			ev.lat = time.Duration(200+rng.Intn(1800)) * time.Microsecond
			ev.dur = time.Duration(30+rng.Intn(120)) * time.Millisecond
			ev.desc = fmt.Sprintf("latency %s->%s %v for %v", ev.from, ev.to, ev.lat, ev.dur)
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
		evs = append(evs, ev)
		elapsed += ev.gap + ev.dur
	}
	return evs
}
