package bench

import (
	"fmt"
	"io"
	"time"

	"ermia/internal/core"
	"ermia/internal/engine"
	"ermia/internal/micro"
	"ermia/internal/silo"
	"ermia/internal/tpcc"
	"ermia/internal/tpce"
	"ermia/internal/wal"
	"ermia/internal/xrand"
)

// Engine names used in every experiment's output, matching the paper's
// legends.
const (
	EngERMIASI  = "ERMIA-SI"
	EngERMIASSN = "ERMIA-SSN"
	EngSilo     = "Silo-OCC"
)

// AllEngines is the standard comparison set.
var AllEngines = []string{EngSilo, EngERMIASI, EngERMIASSN}

// Params scales an experiment run. Zero values select quick-mode defaults
// suited to small machines; Full approximates the paper's scale.
type Params struct {
	Threads   int           // worker goroutines (the paper's x axis caps at 24)
	Duration  time.Duration // per measurement point
	Items     int           // TPC-C ITEM cardinality
	MicroRows int           // microbenchmark table size
	Customers int           // TPC-E customers
	Full      bool          // use paper-scale parameters
	Out       io.Writer
}

func (p *Params) setDefaults() {
	if p.Threads == 0 {
		if p.Full {
			p.Threads = 24
		} else {
			p.Threads = 4
		}
	}
	if p.Duration == 0 {
		if p.Full {
			p.Duration = 30 * time.Second
		} else {
			p.Duration = 2 * time.Second
		}
	}
	if p.Items == 0 {
		if p.Full {
			p.Items = 100000
		} else {
			// Items >= NumSuppliers keeps the Q2* supplier→stock join
			// meaningful; the customer count is capped separately so the
			// quick-mode load stays fast.
			p.Items = 10000
		}
	}
	if p.MicroRows == 0 {
		if p.Full {
			// The paper's microbenchmark runs on the Stock table at 24
			// warehouses: 2.4M rows.
			p.MicroRows = 2400000
		} else {
			// Large enough that read-write conflicts (the paper's subject)
			// dominate write-write collisions even at the 10k read set.
			p.MicroRows = 200000
		}
	}
	if p.Customers == 0 {
		if p.Full {
			p.Customers = 5000
		} else {
			p.Customers = 300
		}
	}
	if p.Out == nil {
		p.Out = io.Discard
	}
}

func (p *Params) printf(format string, args ...any) {
	fmt.Fprintf(p.Out, format, args...)
}

// OpenEngine creates a fresh engine by experiment name.
func OpenEngine(name string) (engine.DB, error) {
	switch name {
	case EngERMIASI, EngERMIASSN:
		return core.Open(core.Config{
			WAL:          wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
			Serializable: name == EngERMIASSN,
			GCInterval:   50 * time.Millisecond,
		})
	case EngSilo:
		return silo.Open(silo.Config{Snapshots: true})
	default:
		return nil, fmt.Errorf("bench: unknown engine %q", name)
	}
}

// ---- TPC-C helpers ----

func (p *Params) tpccConfig(warehouses int, q2Size int, access tpcc.AccessMode) tpcc.Config {
	cfg := tpcc.Config{Warehouses: warehouses, Items: p.Items, Q2SizePct: q2Size, Access: access}
	if !p.Full {
		cfg.CustomersPerDistrict = 600
	}
	return cfg
}

// runTPCC loads (if load) and runs a TPC-C mix, returning the result.
func (p *Params) runTPCC(db engine.DB, cfg tpcc.Config, mix []tpcc.MixEntry, threads int) (Result, error) {
	d := tpcc.NewDriver(db, cfg)
	res := Run(Options{
		Workers:  threads,
		Duration: p.Duration,
		Exec: func(worker int, rng *xrand.Rand) (string, error) {
			kind := tpcc.Pick(mix, rng)
			return kind.String(), d.Run(kind, worker, rng)
		},
		IsUserAbort: tpcc.IsUserAbort,
	})
	return res, res.Err
}

func loadTPCC(db engine.DB, cfg tpcc.Config) error {
	return tpcc.NewDriver(db, cfg).Load()
}

// ---- TPC-E helpers ----

func (p *Params) tpceConfig(sizePct int) tpce.Config {
	return tpce.Config{Customers: p.Customers, AssetEvalSizePct: sizePct}
}

func (p *Params) runTPCE(db engine.DB, cfg tpce.Config, mix []tpce.MixEntry, threads int) (Result, error) {
	d := tpce.NewDriver(db, cfg)
	res := Run(Options{
		Workers:  threads,
		Duration: p.Duration,
		Exec: func(worker int, rng *xrand.Rand) (string, error) {
			kind := tpce.Pick(mix, rng)
			return kind.String(), d.Run(kind, worker, rng)
		},
	})
	return res, res.Err
}

func loadTPCE(db engine.DB, cfg tpce.Config) error {
	return tpce.NewDriver(db, cfg).Load()
}

// ---- Experiments ----

// Fig1 reproduces Figure 1: microbenchmark throughput as the write/read
// ratio grows, at read-set sizes 1k and 10k.
func Fig1(p Params) error {
	p.setDefaults()
	ratios := []float64{0.001, 0.003, 0.01, 0.03, 0.1}
	readSets := []int{1000, 10000}
	p.printf("# Figure 1: microbenchmark, %d rows, %d threads, %v/point\n",
		p.MicroRows, p.Threads, p.Duration)
	p.printf("%-10s %-9s %-10s %12s %10s\n", "readset", "w/r", "engine", "kTps", "abort%")
	for _, reads := range readSets {
		for _, eng := range AllEngines {
			db, err := OpenEngine(eng)
			if err != nil {
				return err
			}
			d := micro.NewDriver(db, micro.Config{Rows: p.MicroRows, Reads: reads})
			if err := d.Load(); err != nil {
				db.Close()
				return err
			}
			for _, ratio := range ratios {
				dr := micro.NewDriver(db, micro.Config{Rows: p.MicroRows, Reads: reads, WriteRatio: ratio})
				res := Run(Options{
					Workers:  p.Threads,
					Duration: p.Duration,
					Exec: func(worker int, rng *xrand.Rand) (string, error) {
						return "micro", dr.Run(worker, rng)
					},
				})
				if res.Err != nil {
					db.Close()
					return res.Err
				}
				k := res.Kinds["micro"]
				p.printf("%-10d %-9g %-10s %12.2f %9.1f%%\n",
					reads, ratio, eng, res.Throughput()/1000, k.AbortRatio()*100)
			}
			db.Close()
		}
	}
	return nil
}

// Fig2 reproduces Figure 2: per-transaction commit rates for TPC-C and for
// TPC-C + Q2* (10% size); Silo starves Q2*.
func Fig2(p Params) error {
	p.setDefaults()
	warehouses := p.Threads
	for _, hybrid := range []bool{false, true} {
		mix := tpcc.StandardMix
		label := "TPC-C"
		if hybrid {
			mix = tpcc.HybridMix
			label = "TPC-C + Q2* (10% size)"
		}
		p.printf("# Figure 2: %s, %d warehouses, %d threads\n", label, warehouses, p.Threads)
		p.printf("%-10s %-14s %12s %12s %10s\n", "engine", "txn", "commits/s", "attempts/s", "abort%")
		for _, eng := range AllEngines {
			db, err := OpenEngine(eng)
			if err != nil {
				return err
			}
			cfg := p.tpccConfig(warehouses, 10, tpcc.AccessHome)
			if err := loadTPCC(db, cfg); err != nil {
				db.Close()
				return err
			}
			res, err := p.runTPCC(db, cfg, mix, p.Threads)
			if err != nil {
				db.Close()
				return err
			}
			for _, kind := range []tpcc.TxnKind{tpcc.NewOrder, tpcc.Payment,
				tpcc.OrderStatus, tpcc.Delivery, tpcc.StockLevel, tpcc.Q2Star} {
				k, ok := res.Kinds[kind.String()]
				if !ok {
					continue
				}
				p.printf("%-10s %-14s %12.0f %12.0f %9.1f%%\n", eng, kind,
					float64(k.Commits)/res.Duration.Seconds(),
					float64(k.Attempts)/res.Duration.Seconds(),
					k.AbortRatio()*100)
			}
			db.Close()
		}
	}
	return nil
}

// hybridRow is one point of the Figure 5 / Figure 6 panels.
type hybridRow struct {
	size       int
	engine     string
	overallTPS float64
	targetTPS  float64
	abortPct   float64
}

// Fig5 reproduces Figure 5: TPC-C-hybrid overall throughput, Q2*
// throughput, and Q2* abort ratio vs Q2* size, normalized to ERMIA-SI.
func Fig5(p Params) error {
	p.setDefaults()
	sizes := []int{1, 20, 40, 60, 80, 100}
	rows, err := p.hybridSweepTPCC(sizes)
	if err != nil {
		return err
	}
	printHybrid(p, "Figure 5: TPC-C-hybrid vs TPC-CH-Q2* size", "Q2*", sizes, rows)
	return nil
}

func (p *Params) hybridSweepTPCC(sizes []int) ([]hybridRow, error) {
	warehouses := p.Threads
	var rows []hybridRow
	for _, eng := range AllEngines {
		db, err := OpenEngine(eng)
		if err != nil {
			return nil, err
		}
		if err := loadTPCC(db, p.tpccConfig(warehouses, 10, tpcc.AccessHome)); err != nil {
			db.Close()
			return nil, err
		}
		for _, size := range sizes {
			cfg := p.tpccConfig(warehouses, size, tpcc.AccessHome)
			res, err := p.runTPCC(db, cfg, tpcc.HybridMix, p.Threads)
			if err != nil {
				db.Close()
				return nil, err
			}
			row := hybridRow{size: size, engine: eng, overallTPS: res.Throughput()}
			if k, ok := res.Kinds[tpcc.Q2Star.String()]; ok {
				row.targetTPS = float64(k.Commits) / res.Duration.Seconds()
				row.abortPct = k.AbortRatio() * 100
			}
			rows = append(rows, row)
		}
		db.Close()
	}
	return rows, nil
}

// Fig6 reproduces Figure 6: TPC-E-hybrid panels vs AssetEval size.
func Fig6(p Params) error {
	p.setDefaults()
	sizes := []int{1, 20, 40, 60, 80, 100}
	rows, err := p.hybridSweepTPCE(sizes)
	if err != nil {
		return err
	}
	printHybrid(p, "Figure 6: TPC-E-hybrid vs AssetEval size", "AssetEval", sizes, rows)
	return nil
}

func (p *Params) hybridSweepTPCE(sizes []int) ([]hybridRow, error) {
	var rows []hybridRow
	for _, eng := range AllEngines {
		db, err := OpenEngine(eng)
		if err != nil {
			return nil, err
		}
		if err := loadTPCE(db, p.tpceConfig(10)); err != nil {
			db.Close()
			return nil, err
		}
		for _, size := range sizes {
			cfg := p.tpceConfig(size)
			res, err := p.runTPCE(db, cfg, tpce.HybridMix, p.Threads)
			if err != nil {
				db.Close()
				return nil, err
			}
			row := hybridRow{size: size, engine: eng, overallTPS: res.Throughput()}
			if k, ok := res.Kinds[tpce.AssetEval.String()]; ok {
				row.targetTPS = float64(k.Commits) / res.Duration.Seconds()
				row.abortPct = k.AbortRatio() * 100
			}
			rows = append(rows, row)
		}
		db.Close()
	}
	return rows, nil
}

func printHybrid(p Params, title, target string, sizes []int, rows []hybridRow) {
	p.setDefaults()
	base := map[int]hybridRow{}
	for _, r := range rows {
		if r.engine == EngERMIASI {
			base[r.size] = r
		}
	}
	p.printf("# %s (%d threads; normalized to ERMIA-SI; absolute ERMIA-SI TPS last column)\n",
		title, p.Threads)
	p.printf("%-6s %-10s %14s %14s %12s %14s\n",
		"size%", "engine", "norm-overall", "norm-"+target, target+"-abort%", "ERMIA-SI-TPS")
	for _, size := range sizes {
		for _, r := range rows {
			if r.size != size {
				continue
			}
			b := base[size]
			normO, normT := 0.0, 0.0
			if b.overallTPS > 0 {
				normO = r.overallTPS / b.overallTPS
			}
			if b.targetTPS > 0 {
				normT = r.targetTPS / b.targetTPS
			}
			p.printf("%-6d %-10s %14.3f %14.3f %11.1f%% %14.0f\n",
				size, r.engine, normO, normT, r.abortPct, b.overallTPS)
		}
	}
}

// threadSteps picks the scalability sweep points.
func (p *Params) threadSteps() []int {
	if p.Full {
		return []int{1, 6, 12, 18, 24}
	}
	steps := []int{1, 2, 4}
	if p.Threads > 4 {
		steps = append(steps, p.Threads)
	}
	return steps
}

// Fig7 reproduces Figure 7: TPC-C and TPC-E throughput vs thread count.
func Fig7(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 7: scalability, stock mixes (%v/point)\n", p.Duration)
	p.printf("%-8s %-8s %-10s %12s\n", "bench", "threads", "engine", "kTps")
	for _, eng := range AllEngines {
		db, err := OpenEngine(eng)
		if err != nil {
			return err
		}
		cfg := p.tpccConfig(maxInt(steps), 10, tpcc.AccessHome)
		if err := loadTPCC(db, cfg); err != nil {
			db.Close()
			return err
		}
		for _, th := range steps {
			res, err := p.runTPCC(db, cfg, tpcc.StandardMix, th)
			if err != nil {
				db.Close()
				return err
			}
			p.printf("%-8s %-8d %-10s %12.2f\n", "TPC-C", th, eng, res.Throughput()/1000)
		}
		db.Close()
	}
	for _, eng := range AllEngines {
		db, err := OpenEngine(eng)
		if err != nil {
			return err
		}
		cfg := p.tpceConfig(10)
		if err := loadTPCE(db, cfg); err != nil {
			db.Close()
			return err
		}
		for _, th := range steps {
			res, err := p.runTPCE(db, cfg, tpce.StandardMix, th)
			if err != nil {
				db.Close()
				return err
			}
			p.printf("%-8s %-8d %-10s %12.2f\n", "TPC-E", th, eng, res.Throughput()/1000)
		}
		db.Close()
	}
	return nil
}

// Fig8 reproduces Figure 8: TPC-C with uniform and 80-20 skewed warehouse
// targeting vs thread count.
func Fig8(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 8: TPC-C with randomized partition targeting\n")
	p.printf("%-9s %-8s %-10s %12s %10s\n", "access", "threads", "engine", "kTps", "abort%")
	for _, access := range []tpcc.AccessMode{tpcc.AccessUniform, tpcc.AccessSkew} {
		name := "uniform"
		if access == tpcc.AccessSkew {
			name = "80-20"
		}
		for _, eng := range AllEngines {
			db, err := OpenEngine(eng)
			if err != nil {
				return err
			}
			cfg := p.tpccConfig(maxInt(steps), 10, access)
			if err := loadTPCC(db, cfg); err != nil {
				db.Close()
				return err
			}
			for _, th := range steps {
				res, err := p.runTPCC(db, cfg, tpcc.StandardMix, th)
				if err != nil {
					db.Close()
					return err
				}
				var aborts, attempts uint64
				for _, k := range res.Kinds {
					aborts += k.Aborts
					attempts += k.Attempts
				}
				abortPct := 0.0
				if attempts > 0 {
					abortPct = float64(aborts) / float64(attempts) * 100
				}
				p.printf("%-9s %-8d %-10s %12.2f %9.1f%%\n", name, th, eng,
					res.Throughput()/1000, abortPct)
			}
			db.Close()
		}
	}
	return nil
}

// Fig9 reproduces Figure 9: TPC-E-hybrid scalability at 10% and 60%
// AssetEval sizes.
func Fig9(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 9: TPC-E-hybrid scalability\n")
	p.printf("%-6s %-8s %-10s %12s\n", "size%", "threads", "engine", "kTps")
	for _, size := range []int{10, 60} {
		for _, eng := range AllEngines {
			db, err := OpenEngine(eng)
			if err != nil {
				return err
			}
			cfg := p.tpceConfig(size)
			if err := loadTPCE(db, cfg); err != nil {
				db.Close()
				return err
			}
			for _, th := range steps {
				res, err := p.runTPCE(db, cfg, tpce.HybridMix, th)
				if err != nil {
					db.Close()
					return err
				}
				p.printf("%-6d %-8d %-10s %12.3f\n", size, th, eng, res.Throughput()/1000)
			}
			db.Close()
		}
	}
	return nil
}

// Fig10 reproduces Figure 10: ERMIA-SI with one log reservation per
// transaction vs one per update operation, on TPC-C.
func Fig10(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 10: ERMIA-SI logging strategies, TPC-C\n")
	p.printf("%-8s %-8s %12s %14s %14s\n", "mode", "threads", "kTps", "log-resv/txn", "log-KB/txn")
	for _, perOp := range []bool{false, true} {
		mode := "Per-TX"
		if perOp {
			mode = "Per-OP"
		}
		db, err := core.Open(core.Config{
			WAL:             wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
			LogPerOperation: perOp,
			GCInterval:      50 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		cfg := p.tpccConfig(maxInt(steps), 10, tpcc.AccessHome)
		if err := loadTPCC(db, cfg); err != nil {
			db.Close()
			return err
		}
		for _, th := range steps {
			before := db.Log().Stats()
			res, err := p.runTPCC(db, cfg, tpcc.StandardMix, th)
			if err != nil {
				db.Close()
				return err
			}
			after := db.Log().Stats()
			commits := float64(res.TotalCommits())
			resvPerTxn, kbPerTxn := 0.0, 0.0
			if commits > 0 {
				resvPerTxn = float64(after.Reservations-before.Reservations) / commits
				kbPerTxn = float64(after.Flushed-before.Flushed) / commits / 1024
			}
			p.printf("%-8s %-8d %12.2f %14.2f %14.2f\n",
				mode, th, res.Throughput()/1000, resvPerTxn, kbPerTxn)
		}
		db.Close()
	}
	return nil
}

// Fig11 reproduces Figure 11: ERMIA-SI per-transaction cycle breakdown by
// component (index / indirection / log / other) as threads grow.
func Fig11(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 11: ERMIA-SI component breakdown per committed txn, TPC-C\n")
	p.printf("%-8s %12s %10s %10s %10s %10s\n",
		"threads", "us/txn", "index%", "indir%", "log%", "other%")
	for _, th := range steps {
		db, err := core.Open(core.Config{
			WAL:        wal.Config{SegmentSize: 64 << 20, BufferSize: 8 << 20},
			GCInterval: 50 * time.Millisecond,
			Profile:    true,
		})
		if err != nil {
			return err
		}
		cfg := p.tpccConfig(maxInt(steps), 10, tpcc.AccessHome)
		if err := loadTPCC(db, cfg); err != nil {
			db.Close()
			return err
		}
		// Snapshot the counters so the load phase is excluded.
		var baseIdx, baseInd, baseLg int64
		for w := 0; w < th; w++ {
			prof := db.WorkerProfile(w)
			baseIdx += prof.Index.Load()
			baseInd += prof.Indirect.Load()
			baseLg += prof.Log.Load()
		}
		res, err := p.runTPCC(db, cfg, tpcc.StandardMix, th)
		if err != nil {
			db.Close()
			return err
		}
		var idx, ind, lg int64
		for w := 0; w < th; w++ {
			prof := db.WorkerProfile(w)
			idx += prof.Index.Load()
			ind += prof.Indirect.Load()
			lg += prof.Log.Load()
		}
		idx -= baseIdx
		ind -= baseInd
		lg -= baseLg
		commits := res.TotalCommits()
		if commits == 0 {
			db.Close()
			continue
		}
		totalBusy := res.Duration.Nanoseconds() * int64(th)
		other := totalBusy - idx - ind - lg
		if other < 0 {
			other = 0
		}
		usPerTxn := float64(totalBusy) / float64(commits) / 1000
		p.printf("%-8d %12.1f %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", th, usPerTxn,
			pct(idx, totalBusy), pct(ind, totalBusy), pct(lg, totalBusy), pct(other, totalBusy))
		db.Close()
	}
	return nil
}

func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total) * 100
}

// Fig12 reproduces Figure 12: Q2* latency vs threads at 60% and 80% sizes.
func Fig12(p Params) error {
	p.setDefaults()
	steps := p.threadSteps()
	p.printf("# Figure 12: TPC-CH-Q2* latency (committed executions)\n")
	p.printf("%-6s %-8s %-10s %12s %12s %12s\n",
		"size%", "threads", "engine", "mean-ms", "min-ms", "max-ms")
	for _, size := range []int{60, 80} {
		for _, eng := range AllEngines {
			db, err := OpenEngine(eng)
			if err != nil {
				return err
			}
			cfg := p.tpccConfig(maxInt(steps), size, tpcc.AccessHome)
			if err := loadTPCC(db, cfg); err != nil {
				db.Close()
				return err
			}
			for _, th := range steps {
				res, err := p.runTPCC(db, cfg, tpcc.HybridMix, th)
				if err != nil {
					db.Close()
					return err
				}
				k, ok := res.Kinds[tpcc.Q2Star.String()]
				if !ok || k.Commits == 0 {
					p.printf("%-6d %-8d %-10s %12s %12s %12s\n", size, th, eng, "starved", "-", "-")
					continue
				}
				p.printf("%-6d %-8d %-10s %12.2f %12.2f %12.2f\n", size, th, eng,
					ms(k.MeanLatency()), ms(k.MinLatency()), ms(k.MaxLatency()))
			}
			db.Close()
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Table1 reproduces Table 1: absolute overall TPS of ERMIA-SI on both
// hybrid workloads over the read-mostly transaction's size.
func Table1(p Params) error {
	p.setDefaults()
	sizes := []int{1, 5, 10, 20, 40, 60, 80, 100}
	p.printf("# Table 1: overall TPS of ERMIA-SI over read-mostly txn size\n")
	p.printf("%-14s", "workload")
	for _, s := range sizes {
		p.printf(" %9d%%", s)
	}
	p.printf("\n")

	db, err := OpenEngine(EngERMIASI)
	if err != nil {
		return err
	}
	if err := loadTPCC(db, p.tpccConfig(p.Threads, 10, tpcc.AccessHome)); err != nil {
		db.Close()
		return err
	}
	p.printf("%-14s", "TPC-C-hybrid")
	for _, size := range sizes {
		res, err := p.runTPCC(db, p.tpccConfig(p.Threads, size, tpcc.AccessHome), tpcc.HybridMix, p.Threads)
		if err != nil {
			db.Close()
			return err
		}
		p.printf(" %10.0f", res.Throughput())
	}
	p.printf("\n")
	db.Close()

	db, err = OpenEngine(EngERMIASI)
	if err != nil {
		return err
	}
	if err := loadTPCE(db, p.tpceConfig(10)); err != nil {
		db.Close()
		return err
	}
	p.printf("%-14s", "TPC-E-hybrid")
	for _, size := range sizes {
		res, err := p.runTPCE(db, p.tpceConfig(size), tpce.HybridMix, p.Threads)
		if err != nil {
			db.Close()
			return err
		}
		p.printf(" %10.0f", res.Throughput())
	}
	p.printf("\n")
	db.Close()
	return nil
}

func maxInt(s []int) int {
	m := s[0]
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Experiments maps experiment names to their runners.
var Experiments = map[string]func(Params) error{
	"fig1": Fig1, "fig2": Fig2, "fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
	"fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
	"fig12": Fig12, "table1": Table1,
}

// ExperimentOrder lists experiments in paper order for "all".
var ExperimentOrder = []string{
	"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "table1",
}
