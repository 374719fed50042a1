// Command ermia-bench regenerates every table and figure of the ERMIA
// paper's evaluation (§4) on this reproduction. Each experiment prints an
// aligned text table whose rows correspond to the paper's series.
//
// Usage:
//
//	ermia-bench -experiment fig5 -threads 8 -duration 5s
//	ermia-bench -experiment all
//	ermia-bench -experiment fig1 -full        # paper-scale parameters
//
// Experiments: fig1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ermia/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (fig1..fig12, table1, all)")
		threads    = flag.Int("threads", 0, "worker goroutines (default: 4, or 24 with -full)")
		duration   = flag.Duration("duration", 0, "measurement time per point (default 2s, 30s with -full)")
		items      = flag.Int("items", 0, "TPC-C ITEM cardinality (default 10000, 100000 with -full)")
		customers  = flag.Int("customers", 0, "TPC-E customers (default 300, 5000 with -full)")
		microRows  = flag.Int("micro-rows", 0, "microbenchmark rows (default 200000, 2400000 with -full)")
		full       = flag.Bool("full", false, "approximate the paper's scale (24 threads, 30s, full tables)")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		names := make([]string, 0, len(bench.Experiments))
		for n := range bench.Experiments {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "ermia-bench: -experiment required (use -list to enumerate)")
		os.Exit(2)
	}

	params := bench.Params{
		Threads:   *threads,
		Duration:  *duration,
		Items:     *items,
		Customers: *customers,
		MicroRows: *microRows,
		Full:      *full,
		Out:       os.Stdout,
	}

	run := func(name string) {
		fn, ok := bench.Experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ermia-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		if err := fn(params); err != nil {
			fmt.Fprintf(os.Stderr, "ermia-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("# %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *experiment == "all" {
		for _, name := range bench.ExperimentOrder {
			run(name)
		}
		return
	}
	run(*experiment)
}
