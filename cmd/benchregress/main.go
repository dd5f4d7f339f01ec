// Command benchregress is the performance-regression gate: it compares
// freshly measured bench reports against the committed baseline
// (results/bench.json) and fails when any family's batch-ingest path,
// or any point of the served-merge series (decode, merge and encode of
// servebench-shaped mg, quantile and hll frames, schema 6), regressed
// beyond the tolerance. `make bench-regress` wires it up:
//
//	go run ./cmd/bench -families-only -out /tmp/bench-fresh-1.json
//	go run ./cmd/bench -families-only -out /tmp/bench-fresh-2.json
//	go run ./cmd/benchregress -baseline results/bench.json \
//	    -fresh /tmp/bench-fresh-1.json,/tmp/bench-fresh-2.json
//
// -fresh takes a comma-separated list and gates on each series'
// MINIMUM ns/op across the runs: scheduler and frequency noise on a
// shared builder only ever makes a run slower, so the min over a few
// runs estimates the true cost while a single sample flakes. Only the
// per-family and served-merge numbers gate: they are single-threaded
// tight loops, far more stable than the server throughput series.
// Series present in only one report are skipped with a notice (new
// series have no baseline; retired ones no fresh number), so adding a
// family never breaks the gate. Allocation counts gate exactly: a path
// that starts allocating where the baseline did not is a regression
// regardless of speed.
//
// When the baseline carries a window section (schema 4), the roll-up
// query plane gates too: for every baseline point with window length
// ≥ -window-min epochs, the best ladder-vs-flat speedup across the
// fresh runs must stay at or above -window-floor (default 5x). The
// floor is deliberately far below the measured ratios — it trips on
// "the planner stopped using coarse segments", not on machine noise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

type pathResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type familyResult struct {
	Family  string     `json:"family"`
	PerItem pathResult `json:"per_item"`
	Batch   pathResult `json:"batch"`
}

type windowPoint struct {
	Window  uint64  `json:"window_epochs"`
	Speedup float64 `json:"speedup"`
}

type windowReport struct {
	Points []windowPoint `json:"points"`
}

type servedPoint struct {
	Family string `json:"family"`
	Op     string `json:"op"`
	pathResult
}

type report struct {
	Schema   int            `json:"schema"`
	Families []familyResult `json:"families"`
	Served   []servedPoint  `json:"served"`
	Window   *windowReport  `json:"window"`
}

// load reads a report and flattens the gated numbers: each family's
// batch path under the family name, each served-merge point under
// served/<family>/<op>.
func load(path string) (map[string]pathResult, *windowReport, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]pathResult, len(r.Families)+len(r.Served))
	for _, f := range r.Families {
		out[f.Family] = f.Batch
	}
	for _, p := range r.Served {
		out["served/"+p.Family+"/"+p.Op] = p.pathResult
	}
	return out, r.Window, r.Schema, nil
}

func main() {
	baseline := flag.String("baseline", "results/bench.json", "committed baseline report")
	fresh := flag.String("fresh", "", "comma-separated freshly measured reports (required); gates on the per-family min ns/op")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression per gated series")
	windowFloor := flag.Float64("window-floor", 5.0, "minimum ladder-vs-flat window query speedup at long windows")
	windowMin := flag.Uint64("window-min", 256, "window length (epochs) at and above which -window-floor gates")
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchregress: -fresh is required")
		os.Exit(2)
	}

	base, baseWin, baseSchema, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(2)
	}
	cur := make(map[string]pathResult)
	// Best (max) speedup per window length across fresh runs: noise only
	// ever drags a ladder query toward flat, so the max estimates the
	// true ratio the same way min ns/op estimates the true cost.
	winBest := make(map[uint64]float64)
	freshHasWindow := false
	for _, path := range strings.Split(*fresh, ",") {
		run, runWin, curSchema, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
			os.Exit(2)
		}
		if baseSchema != curSchema {
			fmt.Printf("note: schema %d (baseline) vs %d (%s); series compared by name\n", baseSchema, curSchema, path)
		}
		for name, p := range run {
			best, seen := cur[name]
			if !seen || p.NsPerOp < best.NsPerOp {
				if seen && best.AllocsPerOp < p.AllocsPerOp {
					p.AllocsPerOp = best.AllocsPerOp
				}
				cur[name] = p
			}
		}
		if runWin != nil {
			freshHasWindow = true
			for _, p := range runWin.Points {
				if p.Speedup > winBest[p.Window] {
					winBest[p.Window] = p.Speedup
				}
			}
		}
	}

	failed := 0
	compared := 0
	for _, name := range slices.Sorted(maps.Keys(base)) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("skip: %-28s not in fresh report\n", name)
			continue
		}
		compared++
		ratio := c.NsPerOp / b.NsPerOp
		switch {
		case c.AllocsPerOp > b.AllocsPerOp:
			failed++
			fmt.Printf("FAIL: %-28s allocs/op %d -> %d\n",
				name, b.AllocsPerOp, c.AllocsPerOp)
		case ratio > 1+*tolerance:
			failed++
			fmt.Printf("FAIL: %-28s %.2f -> %.2f ns/op (%.1f%% slower, tolerance %.0f%%)\n",
				name, b.NsPerOp, c.NsPerOp, (ratio-1)*100, *tolerance*100)
		default:
			fmt.Printf("ok:   %-28s %.2f -> %.2f ns/op (%+.1f%%)\n",
				name, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cur)) {
		if _, ok := base[name]; !ok {
			fmt.Printf("skip: %-28s not in baseline (new series)\n", name)
		}
	}
	// Window query-plane gate: the ladder must keep beating the flat
	// per-epoch plan by at least -window-floor at long windows. A
	// baseline with a window section and a fresh report without one
	// means the series silently stopped running — that fails too.
	winGated := 0
	switch {
	case baseWin == nil && !freshHasWindow:
		// Pre-window baseline against pre-window fresh runs: nothing to gate.
	case !freshHasWindow:
		failed++
		fmt.Printf("FAIL: window series in baseline but missing from every fresh report\n")
	default:
		for _, p := range baseWin.Points {
			if p.Window < *windowMin {
				continue
			}
			got, ok := winBest[p.Window]
			if !ok {
				failed++
				fmt.Printf("FAIL: window W=%-5d in baseline but not in fresh reports\n", p.Window)
				continue
			}
			winGated++
			if got < *windowFloor {
				failed++
				fmt.Printf("FAIL: window W=%-5d ladder speedup %.2fx (floor %.1fx)\n", p.Window, got, *windowFloor)
			} else {
				fmt.Printf("ok:   window W=%-5d ladder speedup %.2fx (floor %.1fx)\n", p.Window, got, *windowFloor)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchregress: no series in common; refusing to pass vacuously")
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: %d checks failed (%d series compared, %d window points gated)\n", failed, compared, winGated)
		os.Exit(1)
	}
	fmt.Printf("benchregress: %d series within %.0f%% of baseline, %d window points above %.1fx\n", compared, *tolerance*100, winGated, *windowFloor)
}
