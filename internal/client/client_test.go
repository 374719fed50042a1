package client_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/engine/enginetest"
	"ermia/internal/proto"
	"ermia/internal/server"
	"ermia/internal/wal"
)

// startServer serves db on a loopback listener and returns its address.
func startServer(t testing.TB, db engine.DB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	cfg.DB = db
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string, pool int) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Options{Addr: addr, PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConformance runs the full engine conformance suite against a remote
// core engine through the wire protocol: the network client must be
// indistinguishable from an in-process engine.DB.
func TestConformance(t *testing.T) {
	for _, durability := range []server.Durability{server.DurabilityGroup, server.DurabilityNone} {
		t.Run(durability.String(), func(t *testing.T) {
			enginetest.Run(t, func(t *testing.T) engine.DB {
				db, err := core.Open(core.Config{
					WAL: wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				_, addr := startServer(t, db, server.Config{Durability: durability})
				return dial(t, addr, 2)
			})
		})
	}
}

// TestPipelinedSingleConnection hammers one connection from many goroutines:
// requests interleave on the wire and group-commit acknowledgments come back
// out of order, all matched by request id.
func TestPipelinedSingleConnection(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := startServer(t, db, server.Config{})
	c := dial(t, addr, 1)

	tbl := c.CreateTable("t")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := c.Begin(id)
				key := []byte(fmt.Sprintf("w%d-%03d", id, i))
				if err := txn.Insert(tbl, key, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					txn.Abort()
					return
				}
				if err := txn.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	txn := c.BeginReadOnly(0)
	defer txn.Abort()
	n := 0
	if err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Fatalf("found %d of %d pipelined inserts", n, workers*per)
	}
}

// TestReconnectAfterRestart is the indeterminacy contract end to end: the
// server is killed mid-workload and restarted from its log directory with
// Recover. Every commit the client saw acknowledged must be visible
// afterwards; every commit that errored must have mapped onto the retryable
// or unavailable parts of the outcome taxonomy — never silently dropped,
// never a fatal misclassification.
func TestReconnectAfterRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.DB {
		st, err := wal.NewDirStorage(dir)
		if err != nil {
			t.Fatal(err)
		}
		db, err := core.Recover(core.Config{
			WAL: wal.Config{SegmentSize: 4 << 20, BufferSize: 1 << 20, Storage: st},
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	db := open()
	srv, addr := startServer(t, db, server.Config{})

	c, err := client.Dial(client.Options{Addr: addr, PoolSize: 4, DialTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl := c.CreateTable("t")

	const workers, per = 4, 60
	acked := make([][]string, workers)
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%03d", id, i)
				txn := c.Begin(id)
				err := txn.Insert(tbl, []byte(key), []byte("v"))
				if err == nil {
					err = txn.Commit()
				} else {
					txn.Abort()
				}
				if err == nil {
					acked[id] = append(acked[id], key)
					continue
				}
				// Unacknowledged: must be retryable (indeterminate — conn
				// lost, overloaded) or unavailable (server refusing work).
				if !engine.IsRetryable(err) && engine.Classify(err) != engine.OutcomeUnavailable {
					t.Errorf("unacked commit %s: %v classified %v", key, err, engine.Classify(err))
				}
				<-killed // wait out the outage rather than burning attempts
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond) // let the workload get going
	srv.Close()                       // kill mid-workload: force-close every session
	db.Close()
	close(killed)

	// Restart on the same address from the log directory.
	db2 := open()
	defer db2.Close()
	srv2, err := server.New(server.Config{DB: db2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	defer srv2.Close()

	wg.Wait()

	// The same client object reconnects transparently; every acknowledged
	// commit must be there.
	deadline := time.Now().Add(5 * time.Second)
	for {
		txn := c.BeginReadOnly(0)
		missing := ""
		var scanErr error
		for id := range acked {
			for _, key := range acked[id] {
				v, err := txn.Get(tbl, []byte(key))
				if err != nil {
					if errors.Is(err, engine.ErrNotFound) {
						missing = key
					} else {
						scanErr = err
					}
					break
				}
				if string(v) != "v" {
					t.Fatalf("acked key %s has value %q", key, v)
				}
			}
		}
		txn.Abort()
		if missing != "" {
			t.Fatalf("acknowledged commit %s lost across restart", missing)
		}
		if scanErr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("verification never converged: %v", scanErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBeginFailureSurfacesOnOps: engine.DB.Begin cannot return an error, so
// a dead server must surface as the retryable ErrConnLost on the
// transaction's operations — exactly what RunWithRetry needs to spin.
func TestBeginFailureSurfacesOnOps(t *testing.T) {
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, addr := startServer(t, db, server.Config{})
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	srv.Close()

	txn := c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); !errors.Is(err, engine.ErrConnLost) {
		t.Fatalf("insert on dead server = %v, want ErrConnLost", err)
	}
	if err := txn.Commit(); !errors.Is(err, engine.ErrConnLost) || !engine.IsRetryable(err) {
		t.Fatalf("commit on dead server = %v, want retryable ErrConnLost", err)
	}
	txn.Abort() // must not panic or hang
}

// TestOversizedRequestFailsAlone: a request over proto.MaxPayload is refused
// before it is queued, with an error no retry loop will spin on. It costs
// its own transaction nothing that Abort cannot undo, and another
// transaction sharing the connection nothing at all.
func TestOversizedRequestFailsAlone(t *testing.T) {
	srv, addr := startServer(t, openCore(t), server.Config{})
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	huge := make([]byte, proto.MaxPayload)
	refused := func(txn engine.Txn) {
		t.Helper()
		err := txn.Insert(tbl, []byte("huge"), huge)
		if !errors.Is(err, proto.ErrFrameTooLarge) || engine.IsRetryable(err) {
			t.Fatalf("oversized insert = %v, want unretryable ErrFrameTooLarge", err)
		}
	}

	bystander := c.Begin(0)
	if err := bystander.Insert(tbl, []byte("b"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Known to the server before the refusal: Abort must reach it.
	begun := c.Begin(0)
	if err := begun.Insert(tbl, []byte("a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	refused(begun)
	// Refused on its first frame: the held Begin goes out with the next one.
	held := c.Begin(0)
	refused(held)
	if _, err := held.Get(tbl, []byte("a")); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("get after the refusal = %v, want ErrNotFound", err)
	}

	if err := bystander.Commit(); err != nil {
		t.Fatalf("bystander commit: %v", err)
	}
	begun.Abort()
	held.Abort()
	if n := srv.Stats().OpenTxns; n != 0 {
		t.Fatalf("%d transactions still open on the server after Abort", n)
	}
	if n := c.Stats().ConnLosses; n != 0 {
		t.Fatalf("ConnLosses = %d, want 0", n)
	}
}
