// Command ermia-demo is a small transactional key-value shell over the
// ERMIA engine, useful for poking at the system by hand:
//
//	ermia-demo -dir /tmp/ermia-data
//	ermia-demo -dir /tmp/ermia-data -serve :7244     # shell + network server
//	ermia-demo -connect localhost:7244               # shell over the wire
//	ermia-demo -shard-map shards.json                # shell over a sharded fleet
//
// Commands (one per line on stdin):
//
//	put <key> <value>     insert or update a record
//	get <key>             read a record
//	del <key>             delete a record
//	scan [prefix]         list records
//	checkpoint            take a fuzzy checkpoint (local engine only)
//	stats                 engine or server counters
//	gc                    run a garbage-collection sweep (local engine only)
//	quit
//
// With -dir, the database recovers from the directory's log on startup, so
// killing the process and restarting demonstrates recovery. With -serve the
// same database is simultaneously exposed to ermia-demo -connect peers; the
// shell and remote clients see each other's commits. With -connect no local
// database is opened at all — every command runs over the wire protocol.
// With -shard-map every command is routed across the fleet the map
// describes: single-shard transactions take the fast path, multi-shard puts
// commit with two-phase commit, and stats shows the per-shard pool counters
// plus the fast/cross commit split.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"ermia"
)

func main() {
	dir := flag.String("dir", "", "data directory (empty: in-memory)")
	serializable := flag.Bool("serializable", true, "enable SSN serializability")
	serve := flag.String("serve", "", "also serve this database for -connect peers on the given address")
	connect := flag.String("connect", "", "connect to a remote ermia-server instead of opening a database")
	shardMap := flag.String("shard-map", "", "shard map JSON file; route commands across a sharded fleet instead of one database")
	decisionLog := flag.String("decision-log", "", "router mode: directory of the durable two-phase-commit decision log (empty: memory-only)")
	flag.Parse()

	var eng ermia.Engine
	var db *ermia.DB          // non-nil only with a local engine
	var cl *ermia.Client      // non-nil only with -connect
	var rt *ermia.ShardRouter // non-nil only with -shard-map

	switch {
	case *shardMap != "":
		if *connect != "" || *serve != "" || *dir != "" {
			fmt.Fprintln(os.Stderr, "ermia-demo: -shard-map excludes -connect, -dir and -serve")
			os.Exit(2)
		}
		m, err := ermia.LoadShardMap(*shardMap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shard map:", err)
			os.Exit(1)
		}
		r, err := ermia.NewShardRouter(m, ermia.ShardRouterOptions{
			DecisionLog:  *decisionLog,
			VerifyShards: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "router:", err)
			os.Exit(1)
		}
		defer r.Close()
		rt, eng = r, r
		fmt.Printf("routing across %d shards (map v%d)\n", len(m.Shards), m.Version)
	case *connect != "":
		if *serve != "" || *dir != "" {
			fmt.Fprintln(os.Stderr, "ermia-demo: -connect excludes -dir and -serve")
			os.Exit(2)
		}
		c, err := ermia.DialServer(ermia.ClientOptions{Addr: *connect})
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer c.Close()
		cl, eng = c, c
		fmt.Println("connected to", *connect)
	default:
		opts := ermia.Options{Dir: *dir, Serializable: *serializable}
		var err error
		if *dir != "" {
			if db, err = ermia.Recover(opts); err == nil {
				fmt.Println("recovered existing database from", *dir)
			}
		}
		if db == nil {
			if db, err = ermia.Open(opts); err != nil {
				fmt.Fprintln(os.Stderr, "open:", err)
				os.Exit(1)
			}
		}
		defer db.Close()
		eng = db
		if *serve != "" {
			srv, err := ermia.NewServer(ermia.ServerConfig{DB: db})
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
			go func() {
				if err := srv.ListenAndServe(*serve); err != nil {
					fmt.Fprintln(os.Stderr, "serve:", err)
				}
			}()
			defer srv.Close()
			fmt.Println("serving on", *serve)
		}
	}
	tbl := eng.CreateTable("kv")

	fmt.Println("ermia-demo ready (put/get/del/scan/checkpoint/stats/gc/quit)")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			key, val := []byte(fields[1]), []byte(strings.Join(fields[2:], " "))
			err := ermia.WithRetry(eng, 0, func(txn ermia.Txn) error {
				if err := txn.Insert(tbl, key, val); errors.Is(err, ermia.ErrDuplicate) {
					return txn.Update(tbl, key, val)
				} else if err != nil {
					return err
				}
				return nil
			})
			report(err, "ok")
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			txn := eng.Begin(0)
			v, err := txn.Get(tbl, []byte(fields[1]))
			txn.Abort()
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("%s\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			err := ermia.WithRetry(eng, 0, func(txn ermia.Txn) error {
				return txn.Delete(tbl, []byte(fields[1]))
			})
			report(err, "deleted")
		case "scan":
			var lo, hi []byte
			if len(fields) > 1 {
				lo = []byte(fields[1])
				hi = append([]byte(fields[1]), 0xFF)
			}
			txn := eng.Begin(0)
			n := 0
			err := txn.Scan(tbl, lo, hi, func(k, v []byte) bool {
				fmt.Printf("  %s = %s\n", k, v)
				n++
				return n < 100
			})
			txn.Abort()
			report(err, fmt.Sprintf("%d records", n))
		case "checkpoint":
			if db == nil {
				fmt.Println("checkpoint is a local-engine command; run it on the server")
				continue
			}
			report(db.Checkpoint(), "checkpoint written")
		case "gc":
			if db == nil {
				fmt.Println("gc is a local-engine command; run it on the server")
				continue
			}
			fmt.Printf("pruned %d versions\n", db.RunGC())
		case "stats":
			if rt != nil {
				fast, cross := rt.CommitCounts()
				fmt.Printf("router: fast-path commits=%d cross-shard (2pc) commits=%d\n", fast, cross)
				for i, ps := range rt.PoolStats() {
					fmt.Printf("shard %d pool: requests=%d retries=%d conn-losses=%d rotations=%d\n",
						i, ps.Requests, ps.Retries, ps.ConnLosses, ps.Rotations)
				}
				continue
			}
			if cl != nil {
				s, err := cl.ServerStats()
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				state, cause, _ := cl.Health()
				fmt.Printf("server: conns=%d open-txns=%d commits=%d aborts=%d group-batches=%d durable-lsn=%d health=%v",
					s.Conns, s.OpenTxns, s.Commits, s.Aborts, s.GroupBatches, s.DurableOffset, state)
				if cause != "" {
					fmt.Printf(" (%s)", cause)
				}
				fmt.Println()
				if s.ReplSubscribers > 0 || s.ReplBatches > 0 {
					lag := uint64(0)
					if s.ReplShippedOffset > s.ReplAckedOffset {
						lag = s.ReplShippedOffset - s.ReplAckedOffset
					}
					fmt.Printf("replication: subscribers=%d batches=%d shipped-lsn=%d acked-lsn=%d lag=%dB\n",
						s.ReplSubscribers, s.ReplBatches, s.ReplShippedOffset, s.ReplAckedOffset, lag)
				}
				ps := cl.Stats()
				fmt.Printf("pool: requests=%d retries=%d conn-losses=%d rotations=%d\n",
					ps.Requests, ps.Retries, ps.ConnLosses, ps.Rotations)
				continue
			}
			s := db.Stats()
			fmt.Printf("commits=%d aborts=%d ww-aborts=%d ssn-aborts=%d phantom=%d pruned=%d gc-pending=%d idx-reclaimed=%d durable-lsn=%d\n",
				s.Commits.Load(), s.Aborts.Load(), s.WWAborts.Load(),
				s.SerialAborts.Load(), s.PhantomAborts.Load(),
				s.VersionsPruned.Load(), s.GCPending.Load(), s.IndexEntriesReclaimed.Load(), db.Log().DurableOffset())
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command:", fields[0])
		}
	}
}

func report(err error, ok string) {
	if err != nil {
		fmt.Println("error:", err)
	} else {
		fmt.Println(ok)
	}
}
