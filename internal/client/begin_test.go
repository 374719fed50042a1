package client_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ermia/internal/client"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/faultconn"
	"ermia/internal/proto"
	"ermia/internal/server"
	"ermia/internal/silo"
)

func openCore(t testing.TB) *core.DB {
	t.Helper()
	db, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// wantSticky asserts that every kind of operation on txn reports want: the
// failure the transaction's first operation surfaced must stay with it.
func wantSticky(t *testing.T, txn engine.Txn, tbl engine.Table, want error) {
	t.Helper()
	_, gerr := txn.Get(tbl, []byte("k"))
	for name, err := range map[string]error{
		"Get":    gerr,
		"Update": txn.Update(tbl, []byte("k"), []byte("v")),
		"Delete": txn.Delete(tbl, []byte("k")),
		"Scan":   txn.Scan(tbl, nil, nil, func(k, v []byte) bool { return true }),
		"Commit": txn.Commit(),
	} {
		if !errors.Is(err, want) {
			t.Errorf("%s after the refused Begin = %v, want %v", name, err, want)
		}
	}
	txn.Abort() // must neither panic nor hang
}

// TestRefusedBeginSurfacesOnFirstOp: Begin is not sent until the first
// operation, so that operation is where a refusal shows — with the sentinel
// the server gave, not the StatusUnknownTxn its own frame earned.
func TestRefusedBeginSurfacesOnFirstOp(t *testing.T) {
	t.Run("overloaded", func(t *testing.T) {
		_, addr := startServer(t, openCore(t), server.Config{Workers: 1})
		c := dial(t, addr, 1)
		tbl := c.CreateTable("t")
		holder := c.Begin(0)
		if err := holder.Insert(tbl, []byte("held"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		defer holder.Abort()

		txn := c.Begin(0)
		if err := txn.Insert(tbl, []byte("k"), []byte("v")); !errors.Is(err, engine.ErrOverloaded) {
			t.Fatalf("first op at the worker limit = %v, want ErrOverloaded", err)
		}
		wantSticky(t, txn, tbl, engine.ErrOverloaded)
	})

	t.Run("deposed", func(t *testing.T) {
		_, oldAddr := startServer(t, openCore(t), server.Config{Epoch: 3})
		_, newAddr := startServer(t, openCore(t), server.Config{Epoch: 9})
		// Pool connection 0 reaches the old primary and connection 1 the new
		// one, which is how a client comes to hold a session on a server it
		// knows to be deposed.
		var dials atomic.Int32
		c, err := client.Dial(client.Options{
			Addr: "primary", PoolSize: 2,
			Dial: func(_ string, timeout time.Duration) (net.Conn, error) {
				addr := oldAddr
				if dials.Add(1) > 1 {
					addr = newAddr
				}
				return net.DialTimeout("tcp", addr, timeout)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tbl := c.CreateTable("t")
		txn := c.Begin(0)
		c.Begin(1).Abort() // dials connection 1 and learns epoch 9
		if c.Epoch() != 9 {
			t.Fatalf("client epoch %d, want 9", c.Epoch())
		}
		rotations := c.Stats().Rotations
		if _, err := txn.Get(tbl, []byte("k")); !errors.Is(err, engine.ErrStaleEpoch) {
			t.Fatalf("first op on a deposed primary = %v, want ErrStaleEpoch", err)
		}
		if got := c.Stats().Rotations - rotations; got != 1 {
			t.Fatalf("stale-epoch Begin rotated %d times, want 1", got)
		}
		wantSticky(t, txn, tbl, engine.ErrStaleEpoch)
	})

	t.Run("draining", func(t *testing.T) {
		srv, addr := startServer(t, openCore(t), server.Config{})
		c := dial(t, addr, 1)
		tbl := c.CreateTable("t")
		straggler := c.Begin(0)
		if err := straggler.Insert(tbl, []byte("held"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done <- srv.Shutdown(ctx)
		}()
		deadline := time.Now().Add(2 * time.Second)
		for {
			txn := c.Begin(0)
			err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool { return true })
			if errors.Is(err, engine.ErrShutdown) {
				wantSticky(t, txn, tbl, engine.ErrShutdown)
				break
			}
			txn.Abort()
			if time.Now().After(deadline) {
				t.Fatalf("drain never became visible; last first-op error: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
		if err := straggler.Commit(); err != nil {
			t.Fatalf("in-flight commit during drain: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("drain: %v", err)
		}
	})
}

// countingConn counts the client's writes to the socket.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingDial returns a client on addr whose socket writes land in writes.
func countingDial(t testing.TB, addr string, writes *atomic.Int64) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Options{
		Addr: addr,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return countingConn{nc, writes}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBeginCostsNoWrite: the Begin frame rides the first operation's write
// and, under SI, a read-only Commit is held for the connection's next write,
// so a read-only transaction of k operations writes to the socket k times
// while still counting k+2 request frames. With no next write the held
// Commit goes out on its own within the hold delay and frees the worker
// slot. A transaction that touches nothing writes nothing and holds no slot.
func TestBeginCostsNoWrite(t *testing.T) {
	srv, addr := startServer(t, openCore(t), server.Config{Workers: 1})
	var writes atomic.Int64
	c := countingDial(t, addr, &writes)
	tbl := c.CreateTable("t")
	seed := c.Begin(0)
	for _, k := range []string{"a", "b", "c"} {
		if err := seed.Insert(tbl, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	w0 := writes.Load()
	idle := c.Begin(0)
	if err := c.BeginReadOnly(0).Commit(); err != nil {
		t.Fatalf("commit of an untouched transaction: %v", err)
	}
	c.Begin(0).Abort()
	if got := writes.Load() - w0; got != 0 {
		t.Fatalf("untouched Begin→Commit and Begin→Abort wrote %d times, want 0", got)
	}

	// idle is still open client-side; the server's only worker slot must
	// nevertheless be free for this transaction.
	w0, r0 := writes.Load(), c.Stats().Requests
	txn := c.BeginReadOnly(0)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := txn.Get(tbl, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := txn.Scan(tbl, nil, nil, func(k, v []byte) bool { n++; return true }); err != nil || n != 3 {
		t.Fatalf("scan saw %d rows, err %v", n, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	const k = 4
	if got := writes.Load() - w0; got != k {
		t.Fatalf("read-only transaction of %d operations wrote %d times, want %d", k, got, k)
	}
	if got := c.Stats().Requests - r0; got != k+2 {
		t.Fatalf("it counted %d request frames, want %d (Begin and Commit are still frames)", got, k+2)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for writes.Load()-w0 != k+1 || srv.Stats().OpenTxns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("50ms on: %d writes, %d open transactions; want the held Commit written (%d) and none open",
				writes.Load()-w0, srv.Stats().OpenTxns, k+1)
		}
		time.Sleep(time.Millisecond)
	}
	idle.Abort()
}

// readOnlyWrites runs one read-only transaction of four Gets and a Commit
// on c and returns how many socket writes it made by the time Commit
// returned.
func readOnlyWrites(t *testing.T, c *client.Client, tbl engine.Table, writes *atomic.Int64) int64 {
	t.Helper()
	w0 := writes.Load()
	txn := c.BeginReadOnly(0)
	for _, k := range []string{"a", "b", "c", "a"} {
		if _, err := txn.Get(tbl, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return writes.Load() - w0
}

// TestSiloReadOnlyCommitWaits: Silo validates a read-only transaction's
// reads at commit, so its server does not set the Begin echo's bit and the
// client waits for the Commit: a transaction of four Gets writes five times.
func TestSiloReadOnlyCommitWaits(t *testing.T) {
	db, err := silo.Open(silo.Config{EpochInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	_, addr := startServer(t, db, server.Config{})
	var writes atomic.Int64
	c := countingDial(t, addr, &writes)
	tbl := c.CreateTable("t")
	seed := c.Begin(0)
	for _, k := range []string{"a", "b", "c"} {
		if err := seed.Insert(tbl, []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readOnlyWrites(t, c, tbl, &writes); got != 5 {
		t.Fatalf("read-only transaction of 4 Gets on a Silo server wrote %d times, want 5", got)
	}
}

// TestReadOnlyCommitUnderSSN: under SSN a read-only transaction can close a
// dependency cycle, so its Commit can fail and the client must wait for it.
// T1 reads y; T2 overwrites y and commits; the read-only T3 reads T2's y and
// the x that T1 is about to overwrite; T1 writes x and commits. T3 would
// have to serialize both after T2 and before T1, which follows T2: its
// Commit gets ErrSerialization. Under SI the same history commits.
func TestReadOnlyCommitUnderSSN(t *testing.T) {
	for _, ssn := range []bool{true, false} {
		t.Run(fmt.Sprintf("serializable=%v", ssn), func(t *testing.T) {
			db, err := core.Open(core.Config{Serializable: ssn})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			_, addr := startServer(t, db, server.Config{})
			c := dial(t, addr, 1)
			tbl := c.CreateTable("t")
			put := c.Begin(0)
			for _, k := range []string{"x", "y"} {
				if err := put.Insert(tbl, []byte(k), []byte("0")); err != nil {
					t.Fatal(err)
				}
			}
			if err := put.Commit(); err != nil {
				t.Fatal(err)
			}

			t1 := c.Begin(0)
			if _, err := t1.Get(tbl, []byte("y")); err != nil {
				t.Fatal(err)
			}
			t2 := c.Begin(0)
			if err := t2.Update(tbl, []byte("y"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			t3 := c.BeginReadOnly(0)
			if v, err := t3.Get(tbl, []byte("y")); err != nil || string(v) != "2" {
				t.Fatalf("T3 read y = %q, %v; want T2's 2", v, err)
			}
			if _, err := t3.Get(tbl, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := t1.Update(tbl, []byte("x"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatalf("T1 commit: %v", err)
			}
			err = t3.Commit()
			if ssn && !errors.Is(err, engine.ErrSerialization) {
				t.Fatalf("read-only T3 closing a cycle committed with %v, want ErrSerialization", err)
			}
			if !ssn && err != nil {
				t.Fatalf("read-only T3 under SI: %v", err)
			}
		})
	}
}

// TestHeldCommitsNeverOverload: with one worker slot, read-only
// transactions run back to back on one connection. Each held Commit leaves
// in the same write as the next transaction's Begin, ahead of it, so the
// server frees the slot before the next Begin asks for it.
func TestHeldCommitsNeverOverload(t *testing.T) {
	srv, addr := startServer(t, openCore(t), server.Config{Workers: 1})
	c := dial(t, addr, 1)
	tbl := c.CreateTable("t")
	seed := c.Begin(0)
	if err := seed.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		txn := c.BeginReadOnly(0)
		if _, err := txn.Get(tbl, []byte("k")); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
		if i%2 == 1 {
			txn.Abort()
		} else if err := txn.Commit(); err != nil {
			t.Fatalf("transaction %d: commit: %v", i, err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().OpenTxns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the last held end never landed: %d open transactions", srv.Stats().OpenTxns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCutBetweenBeginAndFirstOp: the connection dies after the held Begin
// frame reached the server but before the operation behind it did. The
// operation reports the retryable ErrConnLost and keeps reporting it, and
// the session's teardown gives the worker slot the Begin took back.
func TestCutBetweenBeginAndFirstOp(t *testing.T) {
	n := faultconn.NewNetwork(1)
	srv := chaosServe(t, n, "server", server.Config{Workers: 1})
	c, err := client.Dial(client.Options{Addr: "server", Dial: faultDialer(n, "client")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl := c.CreateTable("t")

	txn := c.Begin(0)
	const beginFrame = proto.HeaderSize + 1 + 8 + 8 + 4 // flags, epoch, handle; CRC
	n.CutAfter("client", "server", beginFrame)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); !errors.Is(err, engine.ErrConnLost) {
		t.Fatalf("first op across the cut = %v, want ErrConnLost", err)
	}
	wantSticky(t, txn, tbl, engine.ErrConnLost)

	deadline := time.Now().Add(2 * time.Second)
	for st := srv.Stats(); st.OpenTxns != 0 || st.Conns != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("teardown leaked the orphaned Begin: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	n.HealAll()
	txn = c.Begin(0)
	if err := txn.Insert(tbl, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("the only worker slot was not reclaimed: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestConnIndexOfMinInt: worker math.MinInt has no negation; indexing the
// pool with it must not panic.
func TestConnIndexOfMinInt(t *testing.T) {
	_, addr := startServer(t, openCore(t), server.Config{})
	dial(t, addr, 3).Begin(math.MinInt).Abort()
}
