// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the pool library and prints every metric by name and
// unit, then, as its last line, a JSON result. See README.md.
//
//	go run . --workload tasktree --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef is a metric the benchmark reports, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same for every workload.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"get_p50_ns", "ns"},
	{"get_p99_ns", "ns"},
	{"allocs_per_op", "allocs/op"},
	{"setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tasktree, handoff, keyed-exchange or paper-sim")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	traceMode := fs.Int("trace", 0, "0 for the end-to-end metrics, 1 for the traced per-layer run")
	spans := fs.String("spans", "", "where the traced run writes its spans as CSV (default .bench_build/spans-<workload>-<seed>.csv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0 or 1\n", workloadNames)
		return 2
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rn := newRunner(stdout, stderr)
	var defs []metricDef
	var err error
	if *traceMode == 0 {
		defs = endToEnd
		err = rn.timed(*name, *seed, time.Duration(*seconds)*time.Second)
	} else {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.csv", *name, *seed)
		}
		defs = perLayer
		err = rn.traced(*name, *seed, time.Duration(*seconds)*time.Second, path)
	}
	if err != nil && !errors.Is(err, errDeadline) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res := result{
		Correct:   err == nil && rn.failed == 0,
		Attempted: max(rn.attempted, 1),
		Failed:    rn.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, m := range defs {
		v, ok := rn.metrics[m.name]
		if !ok && res.Correct {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", m.name)
			return 2
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g (%d failed of %d attempted)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
