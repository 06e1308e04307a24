// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, prints every end-to-end metric with its unit,
// checks that the outputs are correct and, with -trace 1, reports the
// per-layer breakdown of a traced run. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through run.py, which builds
// this program first):
//
//	perfbench -workload paper-sweep -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and the checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in wall seconds (at least one iteration runs)")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics and the tracing overhead")
	record := fs.String("record-digests", "", "print the outcome digests of the simulated workloads for a seed range such as 1-32, for digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Each workload runs serially in one process; one P keeps CPU and
	// wall time steady on small shared machines.
	runtime.GOMAXPROCS(1)
	if *record != "" {
		if err := recordDigests(stdout, *record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rep, err := runWorkload(w, *seed, budget, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout)
	b, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
