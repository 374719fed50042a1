package tpce

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ermia/internal/codec"
	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/silo"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

func testConfig() Config {
	return Config{Customers: 100, AssetEvalSizePct: 10}
}

func openERMIA(t testing.TB, serializable bool) engine.DB {
	t.Helper()
	db, err := core.Open(core.Config{
		WAL:          wal.Config{SegmentSize: 8 << 20, BufferSize: 2 << 20},
		Serializable: serializable,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openSilo(t testing.TB) engine.DB {
	t.Helper()
	db, err := silo.Open(silo.Config{Snapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func loadDriver(t testing.TB, db engine.DB) *Driver {
	t.Helper()
	d := NewDriver(db, testConfig())
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadCardinalities(t *testing.T) {
	db := openERMIA(t, false)
	d := loadDriver(t, db)
	cdb := db.(*core.DB)
	cfg := d.Config()

	checks := map[string]int{
		TableCustomer:  cfg.Customers,
		TableAccount:   cfg.Accounts(),
		TableBroker:    cfg.Brokers,
		TableSecurity:  cfg.Securities,
		TableLastTrade: cfg.Securities,
		TableCompany:   cfg.Securities,
		TableWatchItem: cfg.Customers * cfg.WatchItemsPerCustomer,
		TableTrade:     cfg.Accounts() * cfg.InitialTradesPerAccount,
	}
	for name, want := range checks {
		tbl := cdb.OpenTable(name).(*core.Table)
		if tbl.Len() != want {
			t.Errorf("%s: %d rows, want %d", name, tbl.Len(), want)
		}
	}
	if tbl := cdb.OpenTable(TableHoldingSum).(*core.Table); tbl.Len() == 0 {
		t.Error("no holding summaries loaded")
	}
}

func TestAllTransactionKindsRun(t *testing.T) {
	for name, open := range map[string]func(testing.TB) engine.DB{
		"ermia-si":  func(tb testing.TB) engine.DB { return openERMIA(tb, false) },
		"ermia-ssn": func(tb testing.TB) engine.DB { return openERMIA(tb, true) },
		"silo":      func(tb testing.TB) engine.DB { return openSilo(tb) },
	} {
		t.Run(name, func(t *testing.T) {
			db := open(t)
			d := loadDriver(t, db)
			rng := xrand.New(11)
			for k := TxnKind(0); k < TxnKind(NumKinds); k++ {
				committed := 0
				for try := 0; try < 50 && committed < 3; try++ {
					err := d.Run(k, 0, rng)
					if err == nil {
						committed++
					} else if !engine.IsRetryable(err) {
						t.Fatalf("%v: %v", k, err)
					}
				}
				if committed == 0 {
					t.Errorf("%v never committed", k)
				}
			}
		})
	}
}

func TestTradeLifecycle(t *testing.T) {
	db := openERMIA(t, false)
	d := loadDriver(t, db)
	rng := xrand.New(12)

	before := d.nextTrade.Load()
	if err := d.Run(TradeOrder, 0, rng); err != nil {
		t.Fatal(err)
	}
	tid := d.nextTrade.Load()
	if tid == before {
		t.Fatal("TradeOrder allocated no trade id")
	}
	// The new trade is pending.
	txn := db.Begin(0)
	tv, err := txn.Get(d.trade, TradeKey(tid))
	txn.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodeTrade(tv).Status; got != TradePending {
		t.Fatalf("new trade status %d", got)
	}

	// Keep running TradeResult until this trade completes.
	for i := 0; i < 20000; i++ {
		if err := d.Run(TradeResult, 0, rng); err != nil && !engine.IsRetryable(err) {
			t.Fatal(err)
		}
		txn := db.Begin(0)
		tv, err := txn.Get(d.trade, TradeKey(tid))
		txn.Abort()
		if err != nil {
			t.Fatal(err)
		}
		if DecodeTrade(tv).Status == TradeCompleted {
			return
		}
	}
	t.Fatal("trade never completed")
}

// racingDB lets another transaction insert a holding summary, and commit, just
// after a TradeResult's read found none: the race two TradeResults on the same
// account and security run.
type racingDB struct {
	engine.DB
	holdingSum engine.Table
	fired      bool
}

func (r *racingDB) Begin(worker int) engine.Txn { return &racingTxn{r.DB.Begin(worker), r} }

type racingTxn struct {
	engine.Txn
	r *racingDB
}

func (t *racingTxn) Get(tbl engine.Table, key []byte) ([]byte, error) {
	v, err := t.Txn.Get(tbl, key)
	if r := t.r; r.holdingSum != nil && tbl == r.holdingSum && errors.Is(err, engine.ErrNotFound) && !r.fired {
		r.fired = true
		other := r.DB.Begin(7)
		if ierr := other.Insert(tbl, key, (&HoldingSummary{Quantity: 1}).Encode(codec.NewTuple(8))); ierr != nil {
			panic(ierr)
		}
		if cerr := other.Commit(); cerr != nil {
			panic(cerr)
		}
	}
	return v, err
}

// A TradeResult that loses the race to insert a holding summary reports a
// conflict its caller retries, not a duplicate-key error that stops the run.
func TestTradeResultSummaryRaceIsAConflict(t *testing.T) {
	for name, open := range map[string]func(testing.TB) engine.DB{
		"ermia-si": func(tb testing.TB) engine.DB { return openERMIA(tb, false) },
		"silo":     func(tb testing.TB) engine.DB { return openSilo(tb) },
	} {
		t.Run(name, func(t *testing.T) {
			db := &racingDB{DB: open(t)}
			d := loadDriver(t, db)
			rng := xrand.New(16)
			for i := 0; i < 200; i++ {
				if err := d.Run(TradeOrder, 0, rng); err != nil {
					t.Fatal(err)
				}
			}
			// No summary exists any more, so every pending trade's result
			// inserts one.
			txn := db.Begin(0)
			var keys [][]byte
			txn.Scan(d.holdingSum, nil, nil, func(k, _ []byte) bool {
				keys = append(keys, append([]byte(nil), k...))
				return true
			})
			for _, k := range keys {
				if err := txn.Delete(d.holdingSum, k); err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}

			db.holdingSum = d.holdingSum
			for i := 0; i < 20000 && !db.fired; i++ {
				err := d.Run(TradeResult, 0, rng)
				if db.fired && !engine.IsRetryable(err) {
					t.Fatalf("TradeResult that lost the summary race: %v, want a retryable conflict", err)
				}
			}
			if !db.fired {
				t.Fatal("no TradeResult reached a pending trade")
			}
		})
	}
}

func TestAssetEvalInsertsHistory(t *testing.T) {
	db := openERMIA(t, false)
	d := loadDriver(t, db)
	rng := xrand.New(13)
	if err := d.Run(AssetEval, 0, rng); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(0)
	defer txn.Abort()
	n := 0
	txn.Scan(d.assetHistory, nil, nil, func(k, v []byte) bool { n++; return true })
	want := d.cfg.Accounts() * d.cfg.AssetEvalSizePct / 100
	if n != want {
		t.Errorf("asset history rows = %d, want %d (one per scanned account)", n, want)
	}
}

func TestAssetEvalFootprintScales(t *testing.T) {
	db := openERMIA(t, false)
	cfg := testConfig()
	cfg.AssetEvalSizePct = 50
	d := NewDriver(db, cfg)
	if err := d.Load(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(14)
	if err := d.Run(AssetEval, 0, rng); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin(0)
	defer txn.Abort()
	n := 0
	txn.Scan(d.assetHistory, nil, nil, func(k, v []byte) bool { n++; return true })
	dcfg := d.Config()
	if want := dcfg.Accounts() / 2; n != want {
		t.Errorf("50%% AssetEval inserted %d rows, want %d", n, want)
	}
}

func TestMixDistribution(t *testing.T) {
	rng := xrand.New(15)
	counts := map[TxnKind]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[Pick(HybridMix, rng)]++
	}
	for _, m := range HybridMix {
		got := float64(counts[m.Kind]) / n * 1000
		want := float64(m.Weight)
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%v share = %.1f‰, want ~%v‰", m.Kind, got, want)
		}
	}
}

func TestConcurrentHybridWorkload(t *testing.T) {
	for name, open := range map[string]func(testing.TB) engine.DB{
		"ermia-ssn": func(tb testing.TB) engine.DB { return openERMIA(tb, true) },
		"silo":      func(tb testing.TB) engine.DB { return openSilo(tb) },
	} {
		t.Run(name, func(t *testing.T) {
			db := open(t)
			d := loadDriver(t, db)
			const workers, txns = 4, 50
			var wg sync.WaitGroup
			var errs sync.Map
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := xrand.New2(uint64(id), 33)
					for i := 0; i < txns; i++ {
						kind := Pick(HybridMix, rng)
						if err := d.Run(kind, id, rng); err != nil && !engine.IsRetryable(err) {
							errs.Store(fmt.Sprintf("%v: %v", kind, err), true)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			errs.Range(func(k, v any) bool {
				t.Error(k)
				return true
			})
		})
	}
}

func TestReadWriteRatio(t *testing.T) {
	// The paper cites TPC-E's ~10:1 read/write ratio; the hybrid mix must
	// stay read-heavy. Count read-only transaction weight.
	ro, rw := 0, 0
	for _, m := range HybridMix {
		if m.Kind.ReadOnly() {
			ro += m.Weight
		} else {
			rw += m.Weight
		}
	}
	// AssetEval and the RW kinds still do mostly reads internally; at the
	// mix level read-only kinds must dominate the short-transaction load.
	if ro < 450 {
		t.Errorf("read-only mix weight = %d‰, expected read-heavy profile", ro)
	}
}
