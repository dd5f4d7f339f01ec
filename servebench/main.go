// Command servebench is the served-path benchmark of summaryd: it
// boots in-process servers on loopback, drives one of three workloads
// (ingest, dashboard, cluster) through two client connections, checks
// every slot against what it pushed, and prints each metric by name
// with its unit and sample count. The last line of its output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run replays the workload's op
// sequence with spans around each layer's public calls and reports the
// per-layer metrics instead. README.md lists every metric, the
// end-to-end metric each per-layer one should move, and the offered
// rates. Run it from the repository root:
//
//	bash servebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind the value, printed but not part of
	// the JSON result.
	n int
}

// result is one run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds metrics printed for a reader but left out of the
	// JSON result, and notes holds failure messages.
	extra map[string]metric
	notes []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest, dashboard or cluster")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs and op sequence are drawn from")
	seconds := fs.Float64("seconds", 10, "seconds of measured load")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := workloadByName(*name)
	if err == nil && (*seconds <= 0 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "servebench workload=%s seed=%d seconds=%g trace=%d\n", spec.name, *seed, *seconds, *trace)
	var res *result
	if *trace == 1 {
		res, err = runTraced(spec, *seed, *seconds)
	} else {
		res, err = runE2E(spec, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes every metric as a line, then the JSON result as
// the last line.
func printResult(w io.Writer, res *result) {
	all := map[string]metric{}
	for k, m := range res.Metrics {
		all[k] = m
	}
	for k, m := range res.extra {
		all[k] = m
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := all[k]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
	for _, note := range res.notes {
		fmt.Fprintln(w, "  FAIL", note)
	}
	out, err := json.Marshal(res)
	if err != nil {
		// A map of float64s and strings always marshals.
		panic(err)
	}
	fmt.Fprintln(w, string(out))
}
