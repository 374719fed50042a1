package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ermia"
	"ermia/internal/codec"
	"ermia/internal/engine"
	"ermia/internal/tpcc"
	"ermia/internal/xrand"
)

// tpcc_hybrid: the paper's heterogeneous mix on the embedded engine.
var tpccHybrid = workload{
	name:    "tpcc_hybrid",
	why:     "The paper's TPC-C-hybrid mix on the embedded ERMIA-SSN engine: short writers beside long Q2* scans load index, mvcc, core and wal reservation, so a gain that starves either side shows.",
	classes: tpccClassNames(),
	long:    []int{int(tpcc.Q2Star)},
	setup:   setupTPCC,
}

func tpccClassNames() []string {
	names := make([]string, tpcc.NumKinds)
	for k := range names {
		names[k] = tpcc.TxnKind(k).String()
	}
	return names
}

// tpccWorker is one terminal pinned to its home warehouse.
type tpccWorker struct {
	id   int
	d    *tpcc.Driver
	rng  *xrand.Rand
	mix  *deck
	kind tpcc.TxnKind
	inst *instance
}

func (w *tpccWorker) next() int {
	w.kind = tpcc.TxnKind(w.mix.draw())
	w.inst.setClass(w.id, int(w.kind))
	return int(w.kind)
}

// try runs the drawn kind once. A retry draws fresh row ids from the same
// stream, as a terminal re-keying a rejected order would.
func (w *tpccWorker) try() error { return w.d.Run(w.kind, w.id, w.rng) }

func setupTPCC(cfg runConfig) (*instance, error) {
	inst := newInstance(cfg)
	dir := filepath.Join(cfg.dir, "log")
	db, err := openEngine(cfg, dir, true, inst)
	if err != nil {
		return nil, err
	}
	tc := tpcc.Config{
		Warehouses:           cfg.clients,
		Items:                cfg.scale(10000),
		CustomersPerDistrict: cfg.scale(600),
		Q2SizePct:            10,
		Access:               tpcc.AccessHome,
	}
	if err := tpcc.NewDriver(db, tc).Load(); err != nil {
		inst.close()
		return nil, err
	}
	d := tpcc.NewDriver(inst.traced(db), tc)
	weights := make([]int, tpcc.NumKinds)
	for _, m := range tpcc.HybridMix {
		weights[m.Kind] = m.Weight
	}
	for i := 0; i < cfg.clients; i++ {
		rng := xrand.New2(cfg.seed, uint64(i))
		inst.callers = append(inst.callers, &tpccWorker{
			id: i, d: d, rng: rng, inst: inst,
			mix: newDeck(weights, xrand.New2(cfg.seed, uint64(i)+0xDEC4)),
		})
	}
	inst.isRollback = tpcc.IsUserAbort
	inst.probeKeys = func() [][]byte {
		var keys [][]byte
		for w := 1; w <= tc.Warehouses; w++ {
			for i := 1; i <= tc.Items; i++ {
				keys = append(keys, tpcc.StockKey(w, i))
			}
		}
		return keys
	}

	// The checks run on the live engine and, on a run's last pass, again on
	// the engine recovered from the same directory, so what the log holds is
	// checked too.
	inst.check = func(*loadResult) error {
		if err := checkTPCC(db, tc.Warehouses, cfg.corrupt); err != nil {
			return fmt.Errorf("live: %w", err)
		}
		if !inst.final {
			return nil
		}
		if err := db.WaitDurable(); err != nil {
			return err
		}
		inst.recoveredBytes = db.DurableOffset()
		if err := db.Close(); err != nil {
			return err
		}
		// Recovery reads the same directory, through the same tap when traced.
		opts := ermia.Options{Serializable: true, Dir: dir, GCInterval: gcInterval}
		if len(inst.storage) > 0 {
			opts.Storage = inst.storage[0]
		}
		t0 := time.Now()
		rdb, err := ermia.Recover(opts)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		inst.recoverTime = time.Since(t0)
		inst.onClose(func() { rdb.Close() })
		if err := checkTPCC(rdb, tc.Warehouses, cfg.corrupt); err != nil {
			return fmt.Errorf("recovered: %w", err)
		}
		return nil
	}
	return inst, nil
}

// checkTPCC verifies TPC-C consistency conditions 1 and 2 (clause 3.3.2) in
// one snapshot: W_YTD = sum(D_YTD), and D_NEXT_O_ID - 1 = max(O_ID) =
// max(NO_O_ID) for every district.
func checkTPCC(db engine.DB, warehouses int, corrupt bool) error {
	warehouse, district := db.OpenTable(tpcc.TableWarehouse), db.OpenTable(tpcc.TableDistrict)
	order, neworder := db.OpenTable(tpcc.TableOrder), db.OpenTable(tpcc.TableNewOrder)
	if warehouse == nil || district == nil || order == nil || neworder == nil {
		return fmt.Errorf("tpcc check: a table is missing")
	}
	txn := db.BeginReadOnly(0)
	defer txn.Abort()

	// maxOID returns the largest order id under a (warehouse, district) key
	// prefix of tbl, or 0 when there is none.
	maxOID := func(tbl engine.Table, lo, hi []byte) (uint64, error) {
		var max uint64
		err := txn.Scan(tbl, lo, hi, func(k, _ []byte) bool {
			kd := codec.DecodeKey(k)
			kd.Uint32()
			kd.Uint32()
			max = kd.Uint64() // keys arrive in order
			return true
		})
		return max, err
	}

	for w := 1; w <= warehouses; w++ {
		wVal, err := txn.Get(warehouse, tpcc.WarehouseKey(w))
		if err != nil {
			return fmt.Errorf("tpcc check: warehouse %d: %w", w, err)
		}
		wYTD := tpcc.DecodeWarehouse(wVal).YTD
		if corrupt && w == 1 {
			wYTD++
		}
		var dSum float64
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			dVal, err := txn.Get(district, tpcc.DistrictKey(w, d))
			if err != nil {
				return fmt.Errorf("tpcc check: district %d/%d: %w", w, d, err)
			}
			dr := tpcc.DecodeDistrict(dVal)
			dSum += dr.YTD

			maxO, err := maxOID(order, tpcc.OrderKey(w, d, 0), tpcc.OrderKey(w, d, math.MaxUint64))
			if err != nil {
				return err
			}
			if dr.NextOID-1 != maxO {
				return fmt.Errorf("tpcc condition 2: w%d d%d: D_NEXT_O_ID-1=%d, max(O_ID)=%d", w, d, dr.NextOID-1, maxO)
			}
			nlo, nhi := tpcc.NewOrderPrefix(w, d)
			maxNO, err := maxOID(neworder, nlo, nhi)
			if err != nil {
				return err
			}
			// A district whose orders are all delivered has no NEW-ORDER row.
			if maxNO != 0 && maxNO != maxO {
				return fmt.Errorf("tpcc condition 2: w%d d%d: max(NO_O_ID)=%d, max(O_ID)=%d", w, d, maxNO, maxO)
			}
		}
		if math.Abs(wYTD-dSum) > 0.01 {
			return fmt.Errorf("tpcc condition 1: w%d: W_YTD=%.2f, sum(D_YTD)=%.2f", w, wYTD, dSum)
		}
	}
	return nil
}
