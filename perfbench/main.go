// Command perfbench is PISD's end-to-end benchmark. One run drives the real
// serving stack from a single load-generating process — frontend.Serving or
// frontend.DynServing → shard.Pool / shard.Remote → the framed transport on
// TCP loopback → in-process cloud.Server instances — with one workload,
// checks every answer against the plaintext oracles off the clock, and
// prints its metrics.
//
//	go run . --workload discover-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the untouched stack and prints the
// end-to-end metrics. With --trace 1 it installs the benchmark's timing
// shims on the stack's public interfaces (frontend.FanoutBatchServer,
// shard.Node, frontend.DynNode and the subscription emit callback), runs
// the workload once with the shims disabled and once enabled, and prints
// the per-layer budget of the enabled phase plus the difference between the
// two phases as the tracing overhead.
//
// Every metric is printed as a "metric <name> <value> <unit>" line; the
// last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the metrics listed
// in BENCHMARK.json. A broken invariant (bucket budget, leakage counter,
// MAC failures, failed shard legs) fails the run with exit code 1 and no
// JSON line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool // small deployment, set by the harness self-test
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, opts.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: derives the dataset, targets, keys and arrival schedule")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds (per phase with --trace 1)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the timing shims")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, sizes) (*result, error){
	"discover-cold":     staticWorkload(loadCold),
	"discover-hot":      staticWorkload(loadHot),
	"discover-overload": staticWorkload(loadOverload),
	"dynamic-churn":     runDynamicChurn,
}

func staticWorkload(load staticLoad) func(options, sizes) (*result, error) {
	return func(o options, sz sizes) (*result, error) { return runStatic(o, sz, load) }
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(o options) (*result, error) {
	sz := fullSizes()
	if o.short {
		sz = shortSizes()
	}
	return workloads[o.workload](o, sz)
}
