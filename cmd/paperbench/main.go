// Command paperbench regenerates the evaluation figures of Hofmann &
// Rünger, "Efficient Data Redistribution Methods for Coupled Parallel
// Particle Codes" (ICPP 2013): Figures 6–9, printed as text tables of
// deterministic virtual seconds, plus this reproduction's Figures 10, R
// (resize) and M (mem).
//
// Examples:
//
//	paperbench -fig 6
//	paperbench -fig 8 -steps 120 -thermal 2.5
//	paperbench -fig 9l -ranks-list 2,4,8,16
//	paperbench -fig all
//	paperbench -fig all -j 8
//	paperbench -fig 10
//	paperbench -fig 10 -ranks-list 64,1024 -workers 1
//	paperbench -fig all -bench BENCH_2.json -bench-baseline BENCH_1.json
//	paperbench -fig 10 -bench BENCH_5.json -bench-baseline BENCH_3.json
//	paperbench -fig mem -bench BENCH_4.json
//	paperbench -fig all -trace-out trace.json -metrics-out metrics.txt
//
// Every -fig value is one entry of paperbench.Figures, which holds the
// figure's default steps/dt/thermal, its panels and its observability run.
//
// With -bench, instead of printing tables the command times every panel of
// the selected figures and writes a JSON report pairing its virtual
// metrics with the host wall clock spent producing it (see
// internal/benchjson); -steps, -dt, -thermal and -ranks-list apply as
// when printing. Figure 10 is timed one rank count at a time, each with a
// host row (wall clock, memory, executor meters). Virtual seconds are
// deterministic; wall clock is the host-performance regression baseline.
// -bench-baseline prints a delta report against a previously written
// report and exits 1 if a virtual metric present in both changed, or if
// the reports share no metric.
//
// -trace-out and -metrics-out additionally run the selected figure's
// observability configuration and export its event log as a Chrome
// trace-event JSON timeline and a Prometheus-style metrics dump. Figures
// 6–10 share the canonical run (paperbench.ObsConfig: the Fig. 9 torus
// steady state with message tracing). Both notices go to stderr, so
// figure output on stdout stays byte-stable.
//
// -fig 10 is not part of -fig all: it is the large-P redistribution
// strategy sweep (64 … 16384 virtual ranks by default, see EXPERIMENTS.md)
// on the event-driven rank executor. -workers pins the executor's run-slot
// count; output is byte-identical at any value.
//
// -fig resize (also outside -fig all) is the elastic-worlds cost figure:
// live vmpi.Resize with particle remapping versus static peak
// over-provisioning, on both machine models (see EXPERIMENTS.md). With
// -trace-out/-metrics-out it exports the elastic grow leg's own timeline,
// so the resize epochs (vmpi/resize and elastic/remap spans, resize
// counter, world-size gauge) are visible in the Chrome trace and the
// metrics dump.
//
// -fig mem (also outside -fig all) is the memory-budget figure: a
// fine-grained exchange whose classic single all-to-all stages four times
// the configured budget, run unbounded (metered) and through the redist
// planner's bounded rounds, next to the three sort strategies under the
// same budget (see EXPERIMENTS.md). With -trace-out/-metrics-out the
// planned exchange's timeline (redist/peak_bytes gauge and counter) is
// exported.
//
// -j sets how many experiments (virtual machine runs) execute concurrently
// on the host (default: the core count). Every figure, trace, and metrics
// byte is identical at any -j value — the experiment scheduler collects
// results in submission order and experiments never observe the host — so
// -j only changes how long the command takes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/benchjson"
	"repro/internal/obs"
	"repro/internal/paperbench"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9l, 9r, 10, resize, mem, or all (all = the paper's 6-9)")
		particles = flag.Int("particles", 6000, "global particle count (rounded to an even lattice cube)")
		ranks     = flag.Int("ranks", 8, "virtual MPI ranks")
		steps     = flag.Int("steps", 0, "MD time steps (0 = figure-specific default)")
		dt        = flag.Float64("dt", 0, "time step size (0 = figure-specific default)")
		thermal   = flag.Float64("thermal", -1, "initial thermal velocity scale (-1 = figure-specific default)")
		accuracy  = flag.Float64("accuracy", 1e-3, "requested solver accuracy")
		seed      = flag.Int64("seed", 42, "particle system seed")
		rankListF = flag.String("ranks-list", "", "rank counts for the figure 9 and 10 sweeps (default 2,4,8 for figure 9 and 64,256,1024,4096,16384 for figure 10)")
		benchOut  = flag.String("bench", "", "instead of printing the selected figures, time them and write a wall-clock + virtual-metrics benchmark report to this file")
		benchBase = flag.String("bench-baseline", "", "time the selected figures and print a delta report against this benchmark JSON; exit 1 if a virtual metric changed or none is in common")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON of the selected figure's observability run to this file")
		metricOut = flag.String("metrics-out", "", "write a Prometheus-style metrics dump of the selected figure's observability run to this file")
		jobs      = flag.Int("j", runtime.NumCPU(), "concurrent experiment jobs (worker pool size; output is byte-identical at any value)")
		workersF  = flag.Int("workers", 0, "executor run slots per experiment (0 = one slot plus host-budget extras; figure bytes are identical at any value)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile (taken after a final GC) to this file")
	)
	flag.Parse()

	// Profiles cover everything after flag parsing. Notices go to stderr and
	// the profile data to their own files, so golden stdout is untouched.
	// The stop function runs on every normal return; error paths exit
	// through os.Exit and drop the (partial) profiles, which is fine.
	defer startProfiles(*cpuProf, *memProf)()

	if *workersF < 0 {
		fmt.Fprintf(os.Stderr, "paperbench: bad -workers %d: want 0 (executor default) or a positive run-slot count\n", *workersF)
		os.Exit(2)
	}
	figs := paperbench.SelectFigures(*fig)
	if figs == nil {
		fmt.Fprintf(os.Stderr, "paperbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	o := paperbench.Options{Base: paperbench.DefaultConfig(), Steps: *steps, Dt: *dt, Thermal: *thermal}
	o.Base.Particles = *particles
	o.Base.Ranks = *ranks
	o.Base.Accuracy = *accuracy
	o.Base.Seed = *seed
	if *rankListF != "" {
		var err error
		if o.Ranks, err = parseInts(*rankListF); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: bad -ranks-list: %v\n", err)
			os.Exit(2)
		}
	}

	paperbench.SetJobs(*jobs)
	paperbench.SetEngineWorkers(*workersF)
	if *jobs > 1 {
		// Stderr only: stdout carries the figure tables, whose bytes must
		// not depend on the worker count.
		fmt.Fprintf(os.Stderr, "paperbench: scheduling experiments on %d workers\n", *jobs)
	}

	ok := true
	if *benchOut != "" || *benchBase != "" {
		ok = bench(figs, o, *benchOut, *benchBase)
	} else {
		for _, f := range figs {
			cfg, ranks := f.Setup(o)
			for _, p := range f.Panels {
				text, _ := p.Run(cfg, ranks)
				fmt.Print(text)
				fmt.Println()
			}
		}
	}
	if *traceOut != "" || *metricOut != "" {
		// Figures 6-10 share the canonical run (paperbench.ObsConfig); the
		// resize and memory figures export their own timelines, where the
		// resize epochs and the redist/peak_bytes meter are visible.
		exportEventLog(*traceOut, *metricOut, figs[0].Obs())
	}
	if !ok {
		os.Exit(1)
	}
}

// bench times the figures, writes the report to out (when set) and prints
// its delta against the baseline file (when set, read before the run so a
// bad path fails fast). It reports false when a virtual metric moved
// against the baseline or none was comparable.
func bench(figs []*paperbench.Figure, o paperbench.Options, out, baseline string) bool {
	var baseRep *benchjson.Report
	if baseline != "" {
		var err error
		if baseRep, err = benchjson.ReadFile(baseline); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
	}
	rep := benchjson.Collect(figs, o)
	if out != "" {
		if err := benchjson.WriteFile(rep, out); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", out, err)
			os.Exit(1)
		}
		wall := 0.0
		for _, f := range rep.Figures {
			wall += f.WallSeconds
		}
		fmt.Printf("wrote %s: %d figures, %.2fs wall clock total\n", out, len(rep.Figures), wall)
	}
	if baseRep == nil {
		return true
	}
	d := benchjson.Diff(baseRep, rep)
	fmt.Print(d.Format())
	return d.Compared > 0 && len(d.VSec) == 0
}

// startProfiles starts the requested pprof captures and returns the
// function that finalizes them (stops the CPU profile, then snapshots the
// heap after a forced GC so the profile reflects retained memory, not
// collectible garbage). All notices go to stderr: stdout carries only the
// figure tables, which the golden checks diff byte-for-byte.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: writing CPU profile to %s\n", cpuPath)
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC()
			err = pprof.Lookup("heap").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "paperbench: wrote heap profile to %s\n", memPath)
		}
	}
}

// exportEventLog writes an event log as a Chrome trace and/or a metrics
// dump. All notices go to stderr so figure bytes on stdout stay stable.
func exportEventLog(traceOut, metricsOut string, events *obs.Log) {
	write := func(path, kind string, export func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		if err := export(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s to %s\n", kind, path)
	}
	write(traceOut, "Chrome trace", func(f *os.File) error { return obs.WriteChromeTrace(f, events) })
	write(metricsOut, "metrics dump", func(f *os.File) error { return obs.WriteMetrics(f, events) })
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("rank count %d < 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
