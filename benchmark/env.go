package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
)

// printEnv prints the environment record: what a reader needs to know before
// comparing these numbers with another run's.
func printEnv(w io.Writer, o options) {
	commit := "unknown" // a checkout without git metadata carries no revision
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "env: num_cpu=%d gomaxprocs=%d go=%s os=%s/%s commit=%s storage=dir(%s) filesystem=%s seed=%d clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		commit, o.out, filesystemOf(o.out), o.seed, o.clients())
}
