package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/hostpar"
	"repro/internal/vmpi"
)

// options parameterises one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the traced run's span file; empty skips it.
	outDir string
	// fault corrupts one episode (see episodeOpts.fault).
	fault bool
}

const (
	// minEpisodes is the fewest episodes a timed run makes, so setup_s is
	// a median of several set-ups.
	minEpisodes = 3
	// setupTrials is the number of set-up-only episodes a timed run makes
	// first: they warm the process up before timing and give setup_s more
	// samples than the timed episodes alone.
	setupTrials = 5
	// minTraced is the fewest traced episodes a traced run makes.
	minTraced = 2
	// maxErrs caps the failure descriptions kept in the record.
	maxErrs = 10
)

// run executes one workload run, timed or traced.
func run(w workload, o options) (*report, error) {
	rep := &report{metrics: map[string]metric{}, record: map[string]any{
		"workload":          w.name,
		"seed":              o.seed,
		"trace":             o.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"host_budget":       hostpar.SharedBudget().Capacity(),
		"executor_workers":  "engine default: 1 base slot + host budget extras",
		"items":             w.items,
		"steps_per_episode": w.steps,
	}}
	if o.trace {
		return rep, traced(w, o, rep)
	}
	timed(w, o, rep)
	return rep, nil
}

// repeat runs episodes until the next one would end after the deadline,
// and at least least of them.
func repeat(least int, seconds float64, next func(i int) episode) []episode {
	start := time.Now()
	var eps []episode
	for {
		eps = append(eps, next(len(eps)))
		el := time.Since(start).Seconds()
		if len(eps) >= least && el+el/float64(len(eps)) > seconds {
			return eps
		}
	}
}

// timed makes the measured run: identical episodes for the run's seconds,
// tracing off, and reports the end-to-end metrics.
func timed(w workload, o options, rep *report) {
	start := time.Now()
	var setups []float64
	for i := 0; i < setupTrials; i++ {
		setups = append(setups, w.episode(episodeOpts{seed: o.seed, setupOnly: true}).setup)
	}
	eps := repeat(minEpisodes, o.seconds-time.Since(start).Seconds(), func(i int) episode {
		e := w.episode(episodeOpts{seed: o.seed, keepInitial: i == 0 && w.energyTol > 0, fault: o.fault && i == 1})
		if i > 0 {
			e = e.lite()
		}
		return e
	})
	check(w, eps, rep)

	var steps []float64
	var mem uint64
	for _, e := range eps {
		steps = append(steps, e.stepMS...)
		setups = append(setups, e.setup)
		mem = max(mem, e.memPeak)
	}
	mapped, _ := sampleMemory()
	mem = max(mem, mapped)
	count(eps, rep)
	wall := sum(steps) / 1e3
	tail, pct := tailPercentile(steps)
	rep.set("particle_steps_per_s", float64(w.items*len(steps))/wall, "1/s")
	rep.set("step_ms_p50", median(steps), "ms")
	rep.set("step_ms_tail", tail, "ms")
	rep.set("setup_s", median(setups), "s")
	rep.set("mem_peak_mb", float64(mem)/1e6, "MB")
	rep.set("vstep_s", steadyStep(eps[0].vstep), "s")
	rep.set("ok_step_share", 1-float64(rep.failed)/float64(rep.attempted), "share")
	rep.record["episodes"] = len(eps)
	rep.record["steps"] = len(steps)
	rep.record["step_ms_tail_percentile"] = pct
	rep.record["step_ms_tail_steps_beyond"] = tailBeyond
	rep.record["timed_wall_s"] = wall
}

// traced makes the traced run: an untraced warm-up episode that is also
// the reference, traced episodes under a CPU profile, an untraced episode
// for the tracing overhead, and the executor scaling probe at 1 and 2
// workers. It reports the per-layer metrics, per traced episode.
func traced(w workload, o options, rep *report) error {
	ref := w.episode(episodeOpts{seed: o.seed, keepInitial: w.energyTol > 0})
	tr := newTracer(w.ranks)

	vmpi.ResetPoolStats()
	inUse0 := vmpi.PoolStatsSnapshot().InUseBytes
	rt0 := readMetrics(mGCCPU, mAllocB, mAllocObjs, mGCCycles)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	// The traced episodes take the run's seconds less the four untraced
	// episodes around them.
	eps := repeat(minTraced, o.seconds-4*ref.wall, func(i int) episode {
		tr.episode = i
		return w.episode(episodeOpts{seed: o.seed, tr: tr, fault: o.fault && i == 0}).lite()
	})
	pprof.StopCPUProfile()
	rt1 := readMetrics(mGCCPU, mAllocB, mAllocObjs, mGCCycles)
	pool := vmpi.PoolStatsSnapshot()

	post := w.episode(episodeOpts{seed: o.seed}).lite()
	one := w.episode(episodeOpts{seed: o.seed, workers: 1}).lite()
	two := w.episode(episodeOpts{seed: o.seed, workers: 2}).lite()
	all := append([]episode{ref, post, one, two}, eps...)
	check(w, all, rep)
	count(all, rep)

	cpu, err := moduleCPU(prof.Bytes())
	if err != nil {
		return err
	}
	n := float64(len(eps))
	for _, m := range layerModules {
		rep.set(m+".cpu_s", cpu[m]/n, "s/episode")
	}
	other := 0.0
	for m, v := range cpu {
		if !slices.Contains(layerModules, m) {
			other += v
		}
	}
	rep.set("other.cpu_s", other/n, "s/episode")

	spans := tr.medians()
	for _, name := range spanNames {
		rep.set(name, spans[name], "s")
	}

	var parks, wakeups, spawned float64
	var maxRunnable, peakResident, maxSlots int
	walls := make([]float64, len(eps))
	var heapLive uint64
	for i, e := range eps {
		x := e.exec
		parks += float64(x.Parks)
		wakeups += float64(x.Wakeups)
		spawned += float64(x.Spawned)
		maxRunnable = max(maxRunnable, x.MaxRunnable)
		peakResident = max(peakResident, x.PeakResident)
		maxSlots = max(maxSlots, x.MaxSlots)
		walls[i] = e.wall
		heapLive = max(heapLive, e.heapLiveMax)
	}
	rep.set("rankexec.parks", parks/n, "count/episode")
	rep.set("rankexec.wakeups", wakeups/n, "count/episode")
	rep.set("rankexec.spawned", spawned/n, "count/episode")
	rep.set("rankexec.max_runnable", float64(maxRunnable), "count")
	rep.set("rankexec.peak_resident", float64(peakResident), "count")
	rep.set("rankexec.max_slots", float64(maxSlots), "count")
	rep.set("rankexec.speedup_2w", sum(one.stepMS)/sum(two.stepMS), "x")

	rep.set("vmpi.messages", float64(ref.stats.TotalMessages()), "count/episode")
	rep.set("vmpi.bytes", float64(ref.stats.TotalBytes()), "B/episode")
	rep.set("vmpi.pool_gets", float64(pool.Gets)/n, "count/episode")
	hit := 0.0
	if pool.Gets > 0 {
		hit = 1 - float64(pool.Misses)/float64(pool.Gets)
	}
	rep.set("vmpi.pool_hit_ratio", hit, "share")
	rep.set("vmpi.pool_waste_bytes", float64(pool.WasteBytes)/n, "B/episode")
	// The in-use meter can sit below zero (see vmpi.PoolStats), so the
	// high-water mark is reported above its level when the window opened.
	rep.set("vmpi.pool_highwater_bytes", float64(pool.HighWaterBytes-inUse0), "B")

	log := ref.stats.Events
	rep.set("coupling.moved", log.Counter(api.CounterMoved), "count/episode")
	rep.set("coupling.kept", log.Counter(api.CounterKept), "count/episode")
	rep.set("coupling.ghosts", log.Counter(api.CounterGhosts), "count/episode")
	strategy := map[string]float64{}
	var fast, fallbacks, capFallbacks float64
	for _, rs := range ref.runStats {
		strategy[rs.Strategy]++
		if rs.FastPath {
			fast++
		}
		if rs.Fallback {
			fallbacks++
		}
		if rs.CapacityFallback {
			capFallbacks++
		}
	}
	rep.set("coupling.fast_path_steps", fast, "count/episode")
	for _, s := range strategies {
		rep.set("coupling.strategy."+s, strategy[s], "count/episode")
	}
	rep.set("coupling.fallbacks", fallbacks, "count/episode")
	rep.set("coupling.capacity_fallbacks", capFallbacks, "count/episode")
	rep.set("redist.nbr_fallbacks", float64(ref.nbrFallbacks), "count/episode")
	events := 0
	for _, evs := range log.ByRank {
		events += len(evs)
	}
	rep.set("obs.events", float64(events), "count/episode")

	rep.set("runtime.gc_cpu_s", (rt1[mGCCPU]-rt0[mGCCPU])/n, "s/episode")
	rep.set("runtime.alloc_mb", (rt1[mAllocB]-rt0[mAllocB])/1e6/n, "MB/episode")
	rep.set("runtime.allocs", (rt1[mAllocObjs]-rt0[mAllocObjs])/n, "count/episode")
	rep.set("runtime.gc_cycles", (rt1[mGCCycles]-rt0[mGCCycles])/n, "count/episode")
	rep.set("runtime.heap_live_max_mb", float64(heapLive)/1e6, "MB")

	for _, p := range []string{"sort", "restore", "resort", "near", "far", "total"} {
		rep.set("vsec."+p, ref.phases[p], "s/step")
	}
	overhead := median(walls) - post.wall
	rep.set("trace.overhead_s", overhead, "s/episode")

	rep.record["traced_episodes"] = len(eps)
	rep.record["tracing_overhead_s"] = overhead
	rep.record["untraced_episode_wall_s"] = post.wall
	rep.record["traced_episode_wall_s"] = median(walls)
	rep.record["probe_step_wall_s"] = map[string]float64{"workers_1": sum(one.stepMS) / 1e3, "workers_2": sum(two.stepMS) / 1e3}
	if o.outDir != "" {
		path := filepath.Join(o.outDir, "spans-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.record["spans"] = path
	}
	return nil
}

// layerModules are the repository modules the CPU split reports by name;
// "runtime" collects samples without a repository frame.
var layerModules = []string{
	"fmm", "zorder", "fft", "pnfft", "cells", "shortrange", "psort", "redist",
	"coupling", "vmpi", "rankexec", "obs", "mdsim", "particle", "hostpar",
	"runtime", "bench",
}

// spanNames are the benchmark's spans, reported as median seconds.
var spanNames = []string{
	"setup.generate_s", "setup.distribute_s", "setup.init_s", "setup.first_solve_s",
	"mdsim.step_s", "psort.sort_merge_s", "redist.exchange_nbr_s", "vmpi.run_s",
}

var strategies = []string{
	api.StrategyPartition, api.StrategyMerge, api.StrategyRotational,
	api.StrategyAlltoall, api.StrategyNeighborhood,
}

// check applies the run-level oracles to eps, whose first episode is the
// reference: the Ewald check of its initial solve, and the same final state
// and virtual step series in every other episode.
func check(w workload, eps []episode, rep *report) {
	ref := &eps[0]
	if ref.initial != nil {
		tol := w.energyTol
		eErr, fErr := ewaldCheck(ref.initial)
		rep.record["ewald_energy_rel_err"] = eErr
		rep.record["ewald_field_rms_rel_err"] = fErr
		if eErr > tol || (w.fieldTol > 0 && fErr > w.fieldTol) {
			for i := range eps {
				eps[i].failAll("initial solve vs Ewald: energy error %.3g (tol %g), field error %.3g (tol %g)",
					eErr, tol, fErr, w.fieldTol)
			}
		}
	}
	for i := 1; i < len(eps); i++ {
		if eps[i].digest != ref.digest || !slices.Equal(eps[i].vstep, ref.vstep) {
			eps[i].failAll("final state or virtual step series differs from the reference episode")
		}
	}
	rep.record["digest"] = ref.digest
	var errs []string
	for _, e := range eps {
		errs = append(errs, e.errs...)
	}
	rep.record["errors"] = errs[:min(len(errs), maxErrs)]
}

// count adds the episodes' steps to attempted and failed.
func count(eps []episode, rep *report) {
	for _, e := range eps {
		rep.attempted += len(e.bad)
		rep.failed += e.failedSteps()
	}
	rep.record["failed_step_share"] = float64(rep.failed) / float64(max(rep.attempted, 1))
}

// tailBeyond is the number of samples the tail percentile leaves above it.
const tailBeyond = 10

// tailPercentile returns the highest per-step percentile with at least
// tailBeyond steps beyond it, and that percentile. With too few steps it
// returns the maximum.
func tailPercentile(v []float64) (value, pct float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// steadyStep is the median virtual step after the first, which still
// carries the transition from the initial distribution.
func steadyStep(v []float64) float64 {
	if len(v) > 1 {
		v = v[1:]
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
