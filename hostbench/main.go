// Command hostbench measures what the reproduction costs on the host: wall
// time per step, throughput, set-up time and peak memory of four
// workloads, each output checked against an oracle. A separate traced run
// of the same workload yields the per-layer numbers: CPU self time per
// repository module from a CPU profile, spans around the benchmark's calls
// into each layer, and the executor, messaging, coupling, observability
// and runtime counters.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload fmm_md --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a record
// of host facts and the details behind the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	out := flag.String("out", "", "directory for the traced run's span file (empty: not written)")
	flag.Parse()

	w, ok := workloads(false)[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "hostbench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	rep, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": rep.record}); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep.result()); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads(false) {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: the metrics of the last output line
// and the record printed before it.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	record            map[string]any
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) result() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}
