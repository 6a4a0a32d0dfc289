// Command perfbench runs one seeded DeepFlow corpus from the kernel hook to
// the answered query and reports what each phase cost. See README.md.
//
//	perfbench -workload bookinfo-history -seed 1 -seconds 5 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end untraced, per-layer traced). The
// command exits 1 when a correctness check failed and 2 when the run could
// not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	// The analyst's query costs are read from this thread's CPU clock.
	runtime.LockOSThread()
	// One P: process CPU time then counts the GC's work without the
	// opportunistic marking an idle second P would add, and does not depend
	// on how many vCPUs the host lends the machine.
	runtime.GOMAXPROCS(1)
	o := options{scale: 1, minRounds: 1000}
	var traced int
	var child bool
	flag.StringVar(&o.workload, "workload", "bookinfo-history", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the simulation and the query mix")
	flag.Float64Var(&o.seconds, "seconds", 5, "least length of the closed-loop query phase")
	flag.IntVar(&traced, "trace", 0, "1 times every layer from outside and reports per-layer metrics")
	flag.BoolVar(&child, "child", false, "measure once and report to the parent process")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for data directories and result files")
	flag.Parse()
	o.traced = traced == 1

	var r *report
	var err error
	if o.traced || child {
		r, err = run(o)
	} else {
		r, err = runChildren(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if child {
		line, err := json.Marshal(r.record())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", line)
		return
	}
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, traced))
	if err := r.save(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := r.write(os.Stdout, o.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !r.correct() {
		os.Exit(1)
	}
}
