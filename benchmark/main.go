// Command benchmark is the repository's benchmark: four closed-loop workloads
// over the embedded engine, the loopback server and the shard router, a small
// set of gated end-to-end metrics, and a traced run that attributes time to
// layers from outside. README.md beside this file is the manual.
//
// The driver's form runs one workload and prints one JSON object last:
//
//	benchmark --workload kv_wire_read --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs every workload, untraced and then traced, and
// prints every metric by name with the environment record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	out         string
	smoke       bool
	repeat      int
	checkRepeat bool
	corrupt     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON line last (default: run them all)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run, as run_seconds in BENCHMARK.json")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with no decorators, 1 the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for data files (removed after each run) and trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload at 1 s measured and 1 s traced on a tenth of the data, all checks on")
	flag.IntVar(&o.repeat, "repeat", 1, "run the full set this many times")
	flag.BoolVar(&o.checkRepeat, "check-repeat", false, "run the full set twice and fail if any end-to-end metric differs by more than its bound")
	flag.BoolVar(&o.corrupt, "corrupt", false, "seed one wrong expected value per workload; the run must then fail")
	flag.Parse()
	os.Exit(run(o, os.Stdout))
}

func run(o options, w io.Writer) int {
	if o.smoke {
		o.seconds = 1
	}
	if o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and there are no positional arguments")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.workload != "" {
		return runOne(o, w)
	}
	return runAll(o, w)
}

// runOne is the driver's form: one workload, one mode, one JSON line last.
func runOne(o options, w io.Writer) int {
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	var rep report
	if o.trace == 0 {
		rep = measure(wl, o, w)
	} else {
		rep = traceRun(wl, o, w)
	}
	printEnv(w, o)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, rep.metrics}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", blob)
	if !rep.correct {
		return 1
	}
	return 0
}

// runAll runs every workload, untraced then traced, o.repeat times (twice
// with -check-repeat), and prints the sets side by side.
func runAll(o options, w io.Writer) int {
	sets := max(o.repeat, 1)
	if o.checkRepeat {
		sets = 2
	}
	ok := true
	all := make([]map[string]report, sets)
	for s := range all {
		all[s] = map[string]report{}
		for i := range workloads {
			wl := &workloads[i]
			fmt.Fprintf(w, "\n#### set %d of %d: %s\n", s+1, sets, wl.name)
			e2e := measure(wl, o, w)
			layers := traceRun(wl, o, w)
			all[s][wl.name] = e2e
			ok = ok && e2e.correct && layers.correct
		}
	}
	printEnv(w, o)
	if sets > 1 {
		ok = compareSets(w, all, o.checkRepeat) && ok
	}
	if !ok {
		fmt.Fprintln(w, "FAILED")
		return 1
	}
	return 0
}

// compareSets prints every end-to-end metric of every set side by side. With
// enforce it reports whether the first two sets agree within each metric's
// bound.
func compareSets(w io.Writer, sets []map[string]report, enforce bool) bool {
	agree := true
	fmt.Fprintf(w, "\n#### end-to-end metrics, %d sets side by side\n", len(sets))
	for i := range workloads {
		name := workloads[i].name
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-14s %-15s", name, m.name)
			for _, set := range sets {
				fmt.Fprintf(w, " %14.4f", set[name].metrics[m.name].Value)
			}
			a, b := sets[0][name].metrics[m.name].Value, sets[1][name].metrics[m.name].Value
			diff := math.Abs(a-b) / math.Abs(a)
			verdict := "ok"
			if diff > m.bound {
				verdict = "DIFFERS"
				agree = agree && !enforce
			}
			fmt.Fprintf(w, " %-5s  differ by %.1f %%, bound %.0f %%  %s\n", m.unit, 100*diff, 100*m.bound, verdict)
		}
	}
	return agree
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload in one mode.
type report struct {
	correct           bool
	attempted, failed uint64
	metrics           map[string]metricValue
}

func (o options) clients() int { return min(runtime.NumCPU(), 4) }

// passes is how many times the untraced run sets up and measures.
func (o options) passes() int {
	if o.smoke {
		return 1
	}
	return 5
}

// warmupFor returns the unrecorded lead-in of a load of the given length.
func warmupFor(measure time.Duration) time.Duration {
	return min(time.Second, max(300*time.Millisecond, measure/3))
}

func (o options) measured() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// setUp builds one instance of wl in a fresh directory and times it.
func setUp(wl *workload, o options, traced bool, tag string) (*instance, time.Duration, func(), error) {
	dir := filepath.Join(o.out, fmt.Sprintf("run-%s-%d-%s", wl.name, os.Getpid(), tag))
	cleanup := func() { os.RemoveAll(dir) }
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, cleanup, err
	}
	t0 := time.Now()
	inst, err := wl.setup(runConfig{
		seed: o.seed, clients: o.clients(), dir: dir, small: o.smoke, traced: traced, corrupt: o.corrupt,
	})
	return inst, time.Since(t0), cleanup, err
}

// finish runs the checks, tears the instance down and says whether the run
// counts as correct.
func finish(w io.Writer, inst *instance, res *loadResult, cleanup func()) bool {
	err := inst.check(res)
	inst.close()
	cleanup()
	switch {
	case err != nil:
		fmt.Fprintf(w, "  check: FAILED: %v\n", err)
	case res.fatal > 0:
		fmt.Fprintf(w, "  check: FAILED: %d operations ended in a non-retryable error, first: %v\n", res.fatal, res.firstErr)
	case res.committed(nil) == 0:
		fmt.Fprintf(w, "  check: FAILED: nothing committed\n")
	default:
		fmt.Fprintf(w, "  check: ok\n")
		return true
	}
	return false
}

// measure is the untraced run: no decorator is installed anywhere. The
// measured time is split over several passes, each a fresh set-up, warm-up,
// load and check. Rates and latency quantiles are taken over all passes
// pooled, and set-up time is the median of the set-ups.
func measure(wl *workload, o options, w io.Writer) report {
	passes := o.passes()
	passLen := o.measured() / time.Duration(passes)
	rep := report{metrics: map[string]metricValue{}, correct: true}
	var setups []float64
	total := &loadResult{}
	for p := 0; p < passes; p++ {
		inst, took, cleanup, err := setUp(wl, o, false, fmt.Sprint("m", p))
		if err != nil {
			cleanup()
			fmt.Fprintf(w, "%s: set-up failed: %v\n", wl.name, err)
			rep.correct = false
			return rep
		}
		if p == 0 {
			fmt.Fprintf(w, "== %s  seed %d, closed loop, %d callers on %d connections/terminals, %d passes of warm-up %v + measured %v\n",
				wl.name, o.seed, len(inst.callers), o.clients(), passes, warmupFor(passLen), passLen)
		}
		res := runLoad(inst.callers, o.seed, warmupFor(passLen), passLen, inst.isRollback, func() {}, func() {})
		fmt.Fprintf(w, "  pass %d: txn_per_s %.1f p50_us %.1f p95_us %.1f long_txn_per_s %.1f setup_s %.4f\n", p+1,
			res.rate(nil), res.lat.Quantile(0.50)/1e3, res.lat.Quantile(0.95)/1e3, res.rate(wl.long), took.Seconds())
		setups = append(setups, took.Seconds())
		total.merge(res)
		inst.final = p == passes-1
		rep.correct = finish(w, inst, res, cleanup) && rep.correct
	}

	setupMed, setupIQR := medianIQR(setups)
	longClass := "the only class"
	if wl.long != nil {
		longClass = "class " + wl.classes[wl.long[0]]
	}
	values := map[string]float64{
		"txn_per_s": total.rate(nil), "p50_us": total.lat.Quantile(0.50) / 1e3, "p95_us": total.lat.Quantile(0.95) / 1e3,
		"long_txn_per_s": total.rate(wl.long), "setup_s": setupMed,
	}
	notes := map[string]string{
		"txn_per_s":      fmt.Sprintf("%d commits in %v", total.committed(nil), total.measured),
		"p50_us":         fmt.Sprintf("%d samples", total.lat.Count()),
		"long_txn_per_s": fmt.Sprintf("%d commits of %s", total.committed(wl.long), longClass),
		"setup_s":        fmt.Sprintf("median of %d set-ups, IQR %.4f", passes, setupIQR),
	}
	for _, m := range endToEnd {
		rep.metrics[m.name] = metricValue{values[m.name], m.unit}
		fmt.Fprintf(w, "  %-16s %12.4f %-5s  %s\n", m.name, values[m.name], m.unit, notes[m.name])
	}
	fmt.Fprintf(w, "  %-16s %12.1f us     not gated\n", "p99_us", total.lat.Quantile(0.99)/1e3)
	fmt.Fprintf(w, "  %-16s %12.1f us     not gated\n", "max_us", float64(total.lat.Max())/1e3)
	fmt.Fprintf(w, "  %-16s %12.6f ratio  %d failed of %d attempted; %d intentional rollbacks, %d retries; not gated\n",
		"failed_share", ratio(float64(total.failed), float64(total.attempted)), total.failed, total.attempted, total.rollbacks, total.retries)
	rep.attempted, rep.failed = total.attempted, total.failed
	return rep
}

// traceRun is the traced run: a plain reference pass for a quarter of the
// time, then for half the time the same load with every decorator installed,
// then the probes and the layer metrics. The trace goes to <out>/trace-<workload>.json.
func traceRun(wl *workload, o options, w io.Writer) report {
	rep := report{metrics: map[string]metricValue{}}
	ref, _, cleanup, err := setUp(wl, o, false, "ref")
	if err != nil {
		cleanup()
		fmt.Fprintf(w, "%s: set-up failed: %v\n", wl.name, err)
		return rep
	}
	refLen, tracedLen := o.measured()/4, o.measured()/2
	refRes := runLoad(ref.callers, o.seed, warmupFor(refLen), refLen, ref.isRollback, func() {}, func() {})
	plainRate := refRes.rate(nil)
	ref.close()
	cleanup()

	inst, _, cleanup, err := setUp(wl, o, true, "traced")
	if err != nil {
		cleanup()
		fmt.Fprintf(w, "%s: traced set-up failed: %v\n", wl.name, err)
		return rep
	}
	fmt.Fprintf(w, "== %s  traced: seed %d, %d callers, warm-up %v + measured %v; untraced reference %.1f txn/s over %v\n",
		wl.name, o.seed, len(inst.callers), warmupFor(tracedLen), tracedLen, plainRate, refLen)
	var before, after counters
	res := runLoad(inst.callers, o.seed, warmupFor(tracedLen), tracedLen, inst.isRollback,
		func() {
			before = inst.readCounters()
			inst.setTracing(true)
		},
		func() {
			inst.setTracing(false)
			after = inst.readCounters()
		})
	probes, perr := runProbes(inst.probeKeys(), o.seed)
	inst.final = true
	// The checks come before the layer metrics: they close the servers, after
	// which the engine-side spans may be read, and they time the recovery.
	rep.correct = finish(w, inst, res, cleanup)
	if perr != nil {
		fmt.Fprintf(w, "  probes: FAILED: %v\n", perr)
		rep.correct = false
	}
	lr := layerMetrics(inst, before, after, res, plainRate, probes)
	for _, m := range perLayer {
		rep.metrics[m.name] = metricValue{lr.values[m.name], m.unit}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", m.name, lr.values[m.name], m.unit, lr.bases[m.name])
	}
	path := filepath.Join(o.out, "trace-"+wl.name+".json")
	if err := writeTrace(path, wl.name, o.seed, wl.classes, inst.clientTrace, inst.engineTrace); err != nil {
		fmt.Fprintf(w, "  trace: FAILED: %v\n", err)
		rep.correct = false
	} else {
		fmt.Fprintf(w, "  trace: %s\n", path)
	}
	rep.attempted, rep.failed = res.attempted, res.failed
	return rep
}

// setTracing switches span and sync-latency recording, for the measured time.
func (inst *instance) setTracing(on bool) {
	inst.clientTrace.on.Store(on)
	inst.engineTrace.on.Store(on)
	for _, s := range inst.storage {
		s.setOn(on)
	}
}
