// Command ermia-vet runs the repo-specific static-analysis suite over the
// module: six analyzers (epochguard, errclass, hotalloc, lockorder,
// nodeterminism, txnlifecycle) enforcing the concurrency,
// transaction-lifecycle, allocation, and error-taxonomy invariants the Go
// compiler cannot see. See internal/vet for the analyzer
// semantics and the //ermia: annotation convention.
//
// Usage:
//
//	ermia-vet [-json] [-run a,b] [-C dir] [./...]
//
// The package pattern is accepted for familiarity but the suite always
// analyzes the whole module: its invariants (lock order, sentinel
// classification, transaction lifecycles) only exist module-wide. Exit
// status is 0 when clean, 1 when findings are reported, 2 on a load or
// usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ermia/internal/vet"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array (file, line, col, analyzer, message)")
		runList = flag.String("run", "", "comma-separated analyzer subset (default: all)")
		chdir   = flag.String("C", "", "analyze the module containing this directory (default: current directory)")
		list    = flag.Bool("list", false, "list the registered analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ermia-vet [-json] [-run a,b] [-C dir] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range vet.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "ermia-vet: only the ./... pattern is supported (the suite is module-wide), got %q\n", arg)
			os.Exit(2)
		}
	}

	analyzers := vet.Analyzers()
	if *runList != "" {
		var err error
		analyzers, err = vet.ByName(strings.Split(*runList, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ermia-vet: %v\n", err)
			os.Exit(2)
		}
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	mod, err := vet.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ermia-vet: %v\n", err)
		os.Exit(2)
	}

	findings := vet.RelFindings(mod.Root, vet.Run(mod, analyzers))

	if *jsonOut {
		b, err := vet.JSON(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ermia-vet: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(b)
	} else {
		os.Stdout.WriteString(vet.Text(findings))
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "ermia-vet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
