// Command perfbench is the repository benchmark. It runs one named workload
// against an in-process IronSafe deployment built from this source tree,
// checks every result row against a host-only non-secure (hons) reference
// and every acked write against a read-back of the table, and prints each
// metric by name with its unit.
//
//	bash perfbench/run.sh --workload tpch-scs --seed 1 --seconds 15 --trace 0
//
// Lines prefixed "# " state the run's assumptions, fidelity and calibration.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
// measured with no instrumentation. With --trace 1 the run is traced instead:
// spans recorded around the calls into each module give the per-layer
// metrics, together with the tracing overhead against an untraced phase of
// the same run. A wrong row or a lost ack prints the result with
// "correct": false and exits 1; an operational error exits 2 without a
// result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's parameters.
type options struct {
	workload workload
	seed     int64
	window   time.Duration // how long the measured phase runs
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for query order, arrival times and record contents")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	res, header, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	for _, line := range header {
		fmt.Fprintln(stdout, "# "+line)
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes the human-readable metric lines and then the JSON
// result line. A value that is not finite is an error: it would not encode.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
