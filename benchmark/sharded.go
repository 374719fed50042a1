package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"

	"ermia/internal/engine"
	"ermia/internal/server"
	"ermia/internal/shard"
	"ermia/internal/xrand"
)

// kv_sharded: transfers between accounts hashed over two servers, through
// the shard router; one in five crosses shards and commits by 2PC.

const (
	shardCount     = 2
	shardAccounts  = 100000
	accountTable   = "accounts"
	initialBalance = 1000000
	classFast      = 0
	classCross     = 1
)

var kvSharded = workload{
	name:    "kv_sharded",
	why:     "Transfers through the shard router over two servers, 20 % cross-shard: the only load on the router fast path, 2PC and the decision log, and the depth-1 guard for write latency.",
	classes: []string{"fast", "cross"},
	long:    []int{classCross},
	setup:   setupSharded,
}

func accountValue(dst []byte, balance int64) []byte {
	return binary.BigEndian.AppendUint64(dst[:0], uint64(balance))
}

type transferWorker struct {
	id      int
	db      engine.DB
	tbl     engine.Table
	rng     *xrand.Rand
	mix     *deck
	byShard [shardCount][]uint32 // account ids living on each shard
	inst    *instance

	a, b   uint64
	amount int64
	ka, kb [8]byte
	va, vb [8]byte
}

func (w *transferWorker) next() int {
	class := w.mix.draw()
	home := w.rng.Intn(shardCount)
	other := home
	if class == classCross {
		other = (home + 1 + w.rng.Intn(shardCount-1)) % shardCount
	}
	w.a = uint64(w.byShard[home][w.rng.Intn(len(w.byShard[home]))])
	for w.b = w.a; w.b == w.a; {
		w.b = uint64(w.byShard[other][w.rng.Intn(len(w.byShard[other]))])
	}
	w.amount = int64(1 + w.rng.Intn(100))
	w.inst.setClass(w.id, class)
	return class
}

func (w *transferWorker) try() error {
	txn := w.db.Begin(w.id)
	ka, kb := kvKey(w.ka[:], w.a), kvKey(w.kb[:], w.b)
	va, err := txn.Get(w.tbl, ka)
	if err != nil {
		txn.Abort()
		return err
	}
	vb, err := txn.Get(w.tbl, kb)
	if err != nil {
		txn.Abort()
		return err
	}
	if len(va) != 8 || len(vb) != 8 {
		txn.Abort()
		return fmt.Errorf("account %d or %d: balance is not 8 bytes", w.a, w.b)
	}
	balA, balB := int64(binary.BigEndian.Uint64(va)), int64(binary.BigEndian.Uint64(vb))
	if err := txn.Update(w.tbl, ka, accountValue(w.va[:], balA-w.amount)); err != nil {
		txn.Abort()
		return err
	}
	if err := txn.Update(w.tbl, kb, accountValue(w.vb[:], balB+w.amount)); err != nil {
		txn.Abort()
		return err
	}
	return txn.Commit()
}

func setupSharded(cfg runConfig) (*instance, error) {
	inst := newInstance(cfg)
	fail := func(err error) (*instance, error) {
		inst.close()
		return nil, err
	}

	// The map names the listeners' addresses, so they open first.
	m := &shard.Map{Version: 1}
	lns := make([]net.Listener, shardCount)
	for i := range lns {
		ln, err := listen(cfg, inst)
		if err != nil {
			return fail(err)
		}
		lns[i] = ln
		inst.onClose(func() { ln.Close() })
		m.Shards = append(m.Shards, shard.ShardInfo{Addr: ln.Addr().String()})
	}

	accounts := cfg.scale(shardAccounts)
	rule := m.RuleFor(accountTable)
	var byShard [shardCount][]uint32
	var key [8]byte
	for id := 0; id < accounts; id++ {
		s := m.ShardOf(rule, kvKey(key[:], uint64(id)))
		byShard[s] = append(byShard[s], uint32(id))
	}

	for i := 0; i < shardCount; i++ {
		db, err := openEngine(cfg, filepath.Join(cfg.dir, fmt.Sprintf("shard%d", i)), false, inst)
		if err != nil {
			return fail(err)
		}
		ids := byShard[i]
		if err := loadRows(db, accountTable, len(ids), func(j int) ([]byte, []byte) {
			return kvKey(make([]byte, 8), uint64(ids[j])), accountValue(make([]byte, 8), initialBalance)
		}); err != nil {
			return fail(err)
		}
		sc := server.Config{
			Workers: cfg.clients + 8, MaxConns: cfg.clients + 8,
			ShardID: uint32(i), ShardMapVersion: m.Version, ShardMapBlob: m.EncodeBinary(),
		}
		if err := startServer(cfg, db, sc, lns[i], inst); err != nil {
			return fail(err)
		}
	}

	// One connection per caller to every shard; the decision log is a real
	// file, so a cross-shard commit pays its sync.
	r, err := shard.NewRouter(m, shard.Options{
		PoolSize:     cfg.clients,
		DecisionLog:  filepath.Join(cfg.dir, "decisions.log"),
		VerifyShards: true,
		Dial:         inst.dialHook(),
	})
	if err != nil {
		return fail(err)
	}
	inst.router = r
	inst.onClose(func() { r.Close() })

	front := inst.traced(r)
	tbl := front.CreateTable(accountTable)
	for i := 0; i < cfg.clients; i++ {
		inst.callers = append(inst.callers, &transferWorker{
			id: i, db: front, tbl: tbl, byShard: byShard, inst: inst,
			rng: xrand.New2(cfg.seed, uint64(i)),
			mix: newDeck([]int{4, 1}, xrand.New2(cfg.seed, uint64(i)+0xDEC4)),
		})
	}
	inst.probeKeys = func() [][]byte { return kvKeys(accounts) }

	inst.check = func(res *loadResult) error {
		// Money is conserved, the router's path counters add up to the commits
		// the callers saw, and no cross-shard transaction is left in doubt.
		txn := r.BeginReadOnly(0)
		var rows int
		var sum int64
		err := txn.Scan(tbl, nil, nil, func(_, v []byte) bool {
			rows++
			sum += int64(binary.BigEndian.Uint64(v))
			return true
		})
		txn.Abort()
		if err != nil {
			return err
		}
		want := int64(accounts) * initialBalance
		if cfg.corrupt {
			want++
		}
		if rows != accounts || sum != want {
			return fmt.Errorf("%d accounts hold %d, want %d accounts holding %d", rows, sum, accounts, want)
		}
		fast, cross := r.CommitCounts()
		if fast+cross != res.allCommits {
			return fmt.Errorf("router counts %d fast + %d cross commits, callers saw %d", fast, cross, res.allCommits)
		}
		if inst.inDoubt, err = r.ResolveInDoubt(); err != nil {
			return fmt.Errorf("resolve in-doubt: %w", err)
		}
		if left, err := r.ResolveInDoubt(); err != nil || left != 0 {
			return fmt.Errorf("%d transactions still in doubt after resolution (err %v)", left, err)
		}
		return nil
	}
	return inst, nil
}
