// Command ermia-server puts an ERMIA engine behind a TCP socket speaking
// the internal/proto wire protocol: pipelined per-connection sessions,
// bounded worker-slot admission control, and cross-connection group commit.
//
//	ermia-server -addr :7244 -dir /var/lib/ermia
//
// With -dir the server recovers the database from the directory's log on
// startup, so kill + restart resumes from every durably acknowledged
// commit. SIGINT/SIGTERM triggers a graceful drain: in-flight transactions
// finish and every owed acknowledgment is flushed before connections close;
// a second signal forces immediate shutdown (open transactions abort).
//
// A degraded engine (log device fault) keeps serving reads; writes fail
// with a typed retry-later status, and the admin Reattach frame (see
// Client.Reattach) heals the log in place.
//
// With -replica-of the server runs as a read-only log-shipping replica of
// another ermia-server:
//
//	ermia-server -addr :7245 -dir /var/lib/ermia-replica -replica-of primary:7244
//
// The replica mirrors the primary's log into -dir, replays it continuously,
// and serves snapshot-consistent reads at its replay watermark; writes fail
// with a typed replica-read-only status. After a primary failure, the admin
// Promote frame (see Client.Promote) turns the replica into a full primary
// over its mirrored log, in place, without a restart. With -auto-promote
// the failover is unsupervised: the replica watches the primary's
// replication heartbeats (-repl-heartbeat on the primary) and promotes
// itself after the configured silence, claiming the next primary epoch so
// a healed old primary is fenced instead of split-brained. Pair with
// -sync-repl on the primary for zero acked-commit loss across failover.
//
// With -shard-map the server serves as one shard of a horizontally
// partitioned deployment:
//
//	ermia-server -addr :4100 -dir /var/lib/ermia-s0 -shard-map shards.json -shard-id 0
//
// The map file names every shard's address plus the per-table placement
// rules, and the server announces its shard id and map version to
// connecting routers, which fence themselves off a mismatched shard
// (stale-map protection). Point an ermia.ShardRouter (or ermia-demo
// -shard-map) at the same file to run transactions across the fleet; see
// DESIGN.md "Sharding & distributed commit".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ermia"
)

func main() {
	var (
		addr         = flag.String("addr", ":7244", "TCP listen address")
		dir          = flag.String("dir", "", "data directory (empty: in-memory, nothing survives restart)")
		serializable = flag.Bool("serializable", false, "enable SSN serializability")
		durability   = flag.String("durability", "group", "commit acknowledgment policy: group (ack once durable) or none (ack on apply)")
		maxConns     = flag.Int("max-conns", 256, "connection cap (excess dials wait in the listen backlog)")
		workers      = flag.Int("workers", 128, "worker-slot pool size (bounds in-flight transactions)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget before force-close")
		replicaOf    = flag.String("replica-of", "", "primary ermia-server address; run as a read-only log-shipping replica")
		ckptEvery    = flag.Duration("checkpoint-interval", 0, "take a checkpoint and truncate the log this often (0: only on demand via the admin Checkpoint frame)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write budget; a peer that stops reading is disconnected")
		idleTimeout  = flag.Duration("idle-timeout", 0, "disconnect a session silent for this long (0: never; live clients stay inside it with keepalives)")
		syncRepl     = flag.Bool("sync-repl", false, "semi-synchronous replication: acknowledge a write commit only after a replica applied it (requires -durability group)")
		syncReplWait = flag.Duration("sync-repl-wait", 5*time.Second, "cap on a deadline-less semi-sync commit's wait for the replica acknowledgment")
		epoch        = flag.Uint64("epoch", 0, "primary epoch to serve under (failover fencing; a promoted replica adopts its own)")
		replHB       = flag.Duration("repl-heartbeat", time.Second, "emit replication heartbeats this often while caught up (0: disable liveness signal)")
		hbTimeout    = flag.Duration("heartbeat-timeout", 0, "replica mode: declare the stream dead after this much silence and redial (0: block forever)")
		autoPromote  = flag.Duration("auto-promote", 0, "replica mode: promote automatically after this much primary silence (0: promotion stays operator-driven)")
		shardMap     = flag.String("shard-map", "", "shard map JSON file; serve as one shard of it and announce the identity to routers")
		shardID      = flag.Uint("shard-id", 0, "this server's shard index within -shard-map")
	)
	flag.Parse()

	var mode ermia.Durability
	switch *durability {
	case "group":
		mode = ermia.DurabilityGroup
	case "none":
		mode = ermia.DurabilityNone
	default:
		fmt.Fprintf(os.Stderr, "ermia-server: unknown -durability %q\n", *durability)
		os.Exit(2)
	}

	base := ermia.ServerConfig{
		MaxConns:      *maxConns,
		Workers:       *workers,
		Durability:    mode,
		WriteTimeout:  *writeTimeout,
		IdleTimeout:   *idleTimeout,
		SyncRepl:      *syncRepl,
		SyncReplWait:  *syncReplWait,
		Epoch:         *epoch,
		ReplHeartbeat: *replHB,
	}
	if *shardMap != "" {
		m, err := ermia.LoadShardMap(*shardMap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ermia-server: shard map:", err)
			os.Exit(2)
		}
		if int(*shardID) >= len(m.Shards) {
			fmt.Fprintf(os.Stderr, "ermia-server: -shard-id %d out of range (map has %d shards)\n", *shardID, len(m.Shards))
			os.Exit(2)
		}
		base.ShardID = uint32(*shardID)
		base.ShardMapVersion = m.Version
		base.ShardMapBlob = m.EncodeBinary()
		fmt.Printf("serving as shard %d of map v%d (%d shards)\n", *shardID, m.Version, len(m.Shards))
	} else if *shardID != 0 {
		fmt.Fprintln(os.Stderr, "ermia-server: -shard-id requires -shard-map")
		os.Exit(2)
	}

	opts := ermia.Options{Dir: *dir, Serializable: *serializable}
	var db *ermia.DB
	var err error
	if *replicaOf != "" {
		rep, err := ermia.StartReplicaWith(ermia.ReplicaConfig{
			PrimaryAddr:      *replicaOf,
			HeartbeatTimeout: *hbTimeout,
		}, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ermia-server: replica:", err)
			os.Exit(1)
		}
		defer rep.Close()
		db = rep.DB()
		fmt.Printf("replicating from %s (watermark %#x)\n", *replicaOf, rep.Watermark())
		go func() {
			if err := waitReplicaErr(rep); err != nil {
				fmt.Fprintln(os.Stderr, "ermia-server: replication stream:", err)
			}
		}()
		// The loop is armed even in replica mode: checkpoints are refused
		// until promotion, then start covering the new primary.
		stopCkpt := startCheckpointLoop(db, *ckptEvery)
		defer stopCkpt()
		srv := newServer(db, base, rep)
		if *autoPromote > 0 {
			startSupervisor(rep, srv, *autoPromote)
		}
		runServer(srv, *addr, mode, *workers, *drainTimeout)
		return
	}
	if *dir != "" {
		if db, err = ermia.Recover(opts); err == nil {
			fmt.Println("recovered database from", *dir)
		}
	}
	if db == nil {
		if db, err = ermia.Open(opts); err != nil {
			fmt.Fprintln(os.Stderr, "ermia-server: open:", err)
			os.Exit(1)
		}
	}
	defer db.Close()
	stopCkpt := startCheckpointLoop(db, *ckptEvery)
	defer stopCkpt()
	srv := newServer(db, base, nil)
	runServer(srv, *addr, mode, *workers, *drainTimeout)
}

// startSupervisor arms heartbeat-supervised automatic promotion: once the
// primary has been silent past the timeout, the replica promotes itself,
// claims the next epoch, and this server starts serving writes under it —
// the already-running server picks the new epoch up via SetEpoch, so no
// restart or operator action is involved. The epoch fence keeps a healed
// old primary from ever splitting the brain (see DESIGN.md).
func startSupervisor(rep *ermia.LogReplica, srv *ermia.Server, silence time.Duration) {
	sup := &ermia.ReplicaSupervisor{
		R:              rep,
		SilenceTimeout: silence,
		OnPromote: func(err error) {
			if err != nil {
				fmt.Fprintln(os.Stderr, "ermia-server: auto-promote:", err)
				return
			}
			srv.SetEpoch(rep.Epoch())
			fmt.Printf("auto-promoted to primary at offset %#x (epoch %d)\n", rep.Watermark(), rep.Epoch())
		},
	}
	go func() {
		if err := sup.Run(make(chan struct{})); err != nil {
			fmt.Fprintln(os.Stderr, "ermia-server: supervisor:", err)
		}
	}()
}

// startCheckpointLoop periodically publishes a checkpoint and truncates the
// sealed log segments below it, bounding both recovery time and disk usage.
// Failures are reported and retried at the next tick (a replica refuses
// checkpoints until promotion; that refusal is expected and stays quiet).
// The returned func stops the loop.
func startCheckpointLoop(db *ermia.DB, every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if err := db.Checkpoint(); err != nil {
				if !errors.Is(err, ermia.ErrReplicaReadOnly) {
					fmt.Fprintln(os.Stderr, "ermia-server: checkpoint:", err)
				}
				continue
			}
			removed, err := db.TruncateLog()
			if err != nil {
				fmt.Fprintln(os.Stderr, "ermia-server: truncate:", err)
				continue
			}
			if ci, ok := db.LastCheckpoint(); ok {
				fmt.Printf("checkpoint g%d at %#x (%d log segments freed)\n", ci.Gen, ci.Begin, len(removed))
			}
		}
	}()
	return func() { close(stop) }
}

// newServer serves db with the flag-built config, wiring the admin Promote
// hook when the engine is a replica.
func newServer(db *ermia.DB, cfg ermia.ServerConfig, rep *ermia.LogReplica) *ermia.Server {
	cfg.DB = db
	if rep != nil {
		cfg.PromoteFn = func() (string, error) {
			if err := rep.Promote(); err != nil {
				return "", err
			}
			return fmt.Sprintf("promoted to primary at offset %#x", rep.Watermark()), nil
		}
	}
	srv, err := ermia.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ermia-server:", err)
		os.Exit(1)
	}
	return srv
}

// waitReplicaErr surfaces a fatal replication-stream error (transient
// transport failures are retried inside the replica and never land here).
func waitReplicaErr(rep *ermia.LogReplica) error {
	for {
		time.Sleep(time.Second)
		if err := rep.Err(); err != nil {
			return err
		}
	}
}

func runServer(srv *ermia.Server, addr string, mode ermia.Durability, workers int, drainTimeout time.Duration) {

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Println("draining (signal again to force)...")
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		go func() {
			<-sigs
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "ermia-server: forced shutdown:", err)
		}
	}()

	fmt.Printf("ermia-server listening on %s (durability=%s, workers=%d)\n", addr, mode, workers)
	if err := srv.ListenAndServe(addr); err != nil {
		fmt.Fprintln(os.Stderr, "ermia-server:", err)
		os.Exit(1)
	}
	stats := srv.Stats()
	fmt.Printf("drained cleanly: %d commits, %d aborts, %d group batches\n",
		stats.Commits, stats.Aborts, stats.GroupBatches)
}
