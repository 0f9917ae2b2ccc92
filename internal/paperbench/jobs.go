package paperbench

import (
	"time"

	"repro/internal/hostpar"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vmpi"
)

// The figure functions run their experiments — one vmpi virtual machine per
// figure row, curve, or sweep point — through the experiment scheduler
// (internal/sched). Experiments are independent (a Run call shares no
// mutable state with another), results are collected in submission order,
// and the assembled figures are byte-identical at any worker count; only
// the host wall-clock time changes.

// jobWorkers is the scheduler worker count; values below 1 select the
// shared host-compute budget's capacity. Set once at startup (the
// paperbench -j flag) before any figure function runs.
var jobWorkers int

// SetJobs sets how many experiments the figure functions run concurrently
// (the paperbench -j flag). n below 1 selects the host's core count. The
// setting affects wall-clock time only; figure output is identical at any
// value.
func SetJobs(n int) { jobWorkers = n }

// execWorkers is the executor run-slot count threaded into every
// experiment's vmpi.Config (the paperbench -workers flag). Zero keeps the
// executor default: one slot plus host-budget extras. Figure bytes are
// identical at any value — make golden-bigp, golden-resize and golden-mem
// prove it by diffing a pinned -workers run against the checked-in
// baseline.
var execWorkers int

// SetEngineWorkers fixes the executor's run-slot count for every
// experiment (the paperbench -workers flag). n below 1 restores the
// executor default. The setting affects wall-clock time only; figure output
// is identical at any value.
func SetEngineWorkers(n int) {
	if n < 0 {
		n = 0
	}
	execWorkers = n
}

// EngineWorkers returns the configured executor run-slot count (0 =
// executor default).
func EngineWorkers() int { return execWorkers }

// Jobs returns the effective scheduler worker count: the SetJobs value, or
// the shared host-compute budget's capacity when none was set.
func Jobs() int {
	if jobWorkers >= 1 {
		return jobWorkers
	}
	return hostpar.SharedBudget().Capacity()
}

// Scheduler metrics are surfaced as obs counter events in a host-side
// buffer, separate from any virtual machine's event log: per-job host
// wall-clock quantities must never appear in the golden observability
// exports, whose bytes may not depend on -j.
const (
	// JobCounter counts completed experiment jobs.
	JobCounter = "sched/jobs"
	// JobQueueCounter accumulates per-job queueing time (seconds a job
	// waited for a worker and a host-compute budget unit).
	JobQueueCounter = "sched/queue_seconds"
	// JobRunCounter accumulates per-job host run time in seconds.
	JobRunCounter = "sched/run_seconds"
)

// Executor meters, accumulated per experiment run. Counters
// sum across runs; the *_max gauges are per-run high-water marks.
const (
	ExecParksCounter      = "vmpi/exec/parks"
	ExecWakeupsCounter    = "vmpi/exec/wakeups"
	ExecSpawnedCounter    = "vmpi/exec/spawned"
	ExecMaxRunnableGauge  = "vmpi/exec/max_runnable"
	ExecPeakResidentGauge = "vmpi/exec/peak_resident"
	ExecMaxSlotsGauge     = "vmpi/exec/max_slots"
)

// recordExecStats appends one run's executor meters.
func recordExecStats(ex *vmpi.ExecStats) {
	jobStats.Counter(ExecParksCounter, float64(ex.Parks))
	jobStats.Counter(ExecWakeupsCounter, float64(ex.Wakeups))
	jobStats.Counter(ExecSpawnedCounter, float64(ex.Spawned))
	jobStats.Gauge(ExecMaxRunnableGauge, float64(ex.MaxRunnable))
	jobStats.Gauge(ExecPeakResidentGauge, float64(ex.PeakResident))
	jobStats.Gauge(ExecMaxSlotsGauge, float64(ex.MaxSlots))
}

var (
	// jobStats is the process-wide host-side buffer the scheduler and the
	// executor meters flow into. Its events are schedule-dependent and are
	// never merged into a virtual machine's event log or the golden exports.
	jobStats  = obs.NewHostBuffer()
	jobsEpoch = time.Now()
)

// JobStats aggregates the host buffer's counters over a span of figure
// runs.
type JobStats struct {
	// Jobs is the number of experiments completed.
	Jobs int
	// QueueSeconds is the summed host time jobs spent queued.
	QueueSeconds float64
	// RunSeconds is the summed host time jobs spent running.
	RunSeconds float64
	// ExecParks, ExecWakeups and ExecSpawned are the executor meters
	// summed over the experiments' runs.
	ExecParks, ExecWakeups, ExecSpawned int64
}

// TakeJobStats returns the statistics accumulated since the previous call
// and advances the mark, so callers can attribute jobs, queueing time and
// executor meters to individual figures (benchjson does this per figure
// and per rank count).
func TakeJobStats() JobStats {
	var st JobStats
	for _, e := range jobStats.Take() {
		if e.Kind != obs.KindCounter {
			continue
		}
		switch e.Name {
		case JobCounter:
			st.Jobs += int(e.Value)
		case JobQueueCounter:
			st.QueueSeconds += e.Value
		case JobRunCounter:
			st.RunSeconds += e.Value
		case ExecParksCounter:
			st.ExecParks += int64(e.Value)
		case ExecWakeupsCounter:
			st.ExecWakeups += int64(e.Value)
		case ExecSpawnedCounter:
			st.ExecSpawned += int64(e.Value)
		}
	}
	return st
}

// recordJob appends one completed job's metrics as counter events.
func recordJob(m sched.Metrics) {
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobCounter, Value: 1})
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobQueueCounter, Value: m.QueueSeconds})
	jobStats.Record(obs.Event{Kind: obs.KindCounter, Name: JobRunCounter, Value: m.RunSeconds})
}

// runJobs executes independent experiment jobs on the shared scheduler and
// returns the results in submission order. The scheduler itself never reads
// the clock; paperbench injects a monotonic one here.
func runJobs[T any](jobs []func() T) []T {
	return sched.Run(sched.Options{
		Workers: jobWorkers,
		Now:     func() int64 { return time.Since(jobsEpoch).Nanoseconds() },
		OnDone:  recordJob,
	}, jobs)
}

// runConfigs executes one experiment per configuration and returns the
// results in configuration order.
func runConfigs(cfgs []Config) []Result {
	jobs := make([]func() Result, len(cfgs))
	for i, c := range cfgs {
		c := c
		jobs[i] = func() Result { return mustRun(c) }
	}
	return runJobs(jobs)
}
