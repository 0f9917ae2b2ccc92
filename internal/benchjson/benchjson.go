// Package benchjson collects the paperbench figure measurements into a
// machine-readable benchmark report: every virtual metric of the selected
// figures, plus the host wall-clock time spent producing each figure
// panel. The virtual seconds are deterministic (cost-model) numbers
// and comparable across machines and commits; the wall-clock numbers
// measure the implementation itself and are the regression baseline for
// host-side performance work.
package benchjson

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"repro/internal/paperbench"
)

// Schema identifies the report layout for downstream tooling.
const Schema = "paperbench/v1"

// Report is the top-level JSON document.
type Report struct {
	Schema    string   `json:"schema"`
	CreatedAt string   `json:"created_at"`
	Host      Host     `json:"host"`
	Config    Config   `json:"config"`
	Figures   []Figure `json:"figures"`
}

// Host records the machine the wall-clock numbers were taken on.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the experiment scheduler's worker count (the paperbench
	// -j value). It changes the wall-clock numbers only; every virtual-
	// second metric is identical at any worker count.
	Workers int `json:"workers"`
}

// Config echoes the experiment parameters the report was generated with.
type Config struct {
	Particles int     `json:"particles"`
	Ranks     int     `json:"ranks"`
	Accuracy  float64 `json:"accuracy"`
	Seed      int64   `json:"seed"`
	RankList  []int   `json:"rank_list"`
}

// Figure is one figure's measurements: the host wall-clock time to produce
// it and its virtual-second metrics.
type Figure struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	// Jobs is the number of experiments (virtual machine runs) the figure
	// scheduled; QueueSeconds is the summed host time those jobs spent
	// waiting for a worker and a host-compute budget unit.
	Jobs         int      `json:"jobs"`
	QueueSeconds float64  `json:"queue_seconds"`
	Metrics      []Metric `json:"metrics"`
	// RankRows carries per-rank-count host measurements for sweep figures
	// (Figure 10); empty otherwise.
	RankRows []RankRow `json:"rank_rows,omitempty"`
}

// Metric is a single virtual value, named by a stable slash-separated
// path (e.g. "fmm/A/step3/total").
type Metric = paperbench.Metric

// hostInfo snapshots the current process environment.
func hostInfo() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    paperbench.Jobs(),
	}
}

// RankRow is one rank count's host-side measurements inside a sweep
// figure (Figure 10).
type RankRow struct {
	Ranks       int     `json:"ranks"`
	WallSeconds float64 `json:"wall_seconds"`
	// HeapInuseBytes and SysBytes are runtime.MemStats snapshots taken
	// right after the rank count's experiments finish: live heap after a
	// forced collection, and the total memory obtained from the OS (a
	// peak-footprint proxy — the Go runtime rarely returns memory within a
	// run, so Sys ratchets to the sweep's high-water mark).
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	// Executor meters summed over the rank count's experiments.
	ExecParks   int64 `json:"exec_parks"`
	ExecWakeups int64 `json:"exec_wakeups"`
	ExecSpawned int64 `json:"exec_spawned"`
}

// Collect runs every panel of figs under o and returns the report: one
// Figure per panel with its wall clock, jobs, queueing time and metrics.
// A sweep figure's rank counts are timed one after another, each as its
// own run of the panel, so every host row's wall clock and memory
// snapshot is attributable to that rank count alone.
func Collect(figs []*paperbench.Figure, o paperbench.Options) *Report {
	rep := &Report{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
		Config: Config{
			Particles: o.Base.Particles,
			Ranks:     o.Base.Ranks,
			Accuracy:  o.Base.Accuracy,
			Seed:      o.Base.Seed,
		},
	}
	for _, f := range figs {
		cfg, ranks := f.Setup(o)
		if ranks != nil {
			rep.Config.RankList = ranks
		}
		points := [][]int{ranks}
		if f.Sweep {
			points = nil
			for _, p := range ranks {
				points = append(points, []int{p})
			}
		}
		for _, p := range f.Panels {
			fig := Figure{Name: p.Bench}
			paperbench.TakeJobStats() // discard stats from before this panel
			for _, pr := range points {
				start := time.Now()
				_, metrics := p.Run(cfg, pr)
				wall := time.Since(start).Seconds()
				st := paperbench.TakeJobStats()
				fig.WallSeconds += wall
				fig.Jobs += st.Jobs
				fig.QueueSeconds += st.QueueSeconds
				fig.Metrics = append(fig.Metrics, metrics...)
				if f.Sweep {
					fig.RankRows = append(fig.RankRows, rankRow(pr[0], wall, st))
				}
			}
			rep.Figures = append(rep.Figures, fig)
		}
	}
	return rep
}

// rankRow snapshots memory after one rank count's run. It collects first
// so HeapInuse measures live memory rather than whatever garbage the last
// collection left behind; the pause lands outside the wall-clock window.
func rankRow(ranks int, wall float64, st paperbench.JobStats) RankRow {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return RankRow{
		Ranks:          ranks,
		WallSeconds:    wall,
		HeapInuseBytes: m.HeapInuse,
		SysBytes:       m.Sys,
		ExecParks:      st.ExecParks,
		ExecWakeups:    st.ExecWakeups,
		ExecSpawned:    st.ExecSpawned,
	}
}

// WriteFile marshals the report (indented, trailing newline) to path.
func WriteFile(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
