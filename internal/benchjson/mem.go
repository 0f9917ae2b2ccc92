package benchjson

import (
	"fmt"
	"time"

	"repro/internal/paperbench"
)

// CollectMem runs the Figure M memory-budget comparison on both machines
// and returns a report with one figure per machine. The virtual-second
// times land in Metrics next to the strategies' metered staging peaks
// (bytes, deterministic cost-model quantities like the times); the wall
// clock per machine is the host-side number. Kept separate from Collect:
// the BENCH_1.json baseline series predates this figure and its figure
// list must stay stable.
func CollectMem() *Report {
	rep := &Report{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host:      hostInfo(),
	}
	machines := []struct {
		name string
		m    paperbench.Machine
	}{
		{"figmeml", paperbench.JuRoPA()},
		{"figmemr", paperbench.Juqueen()},
	}
	for _, mc := range machines {
		paperbench.TakeJobStats() // discard stats from before this figure
		start := time.Now()
		rows := paperbench.FigMem(mc.m)
		wall := time.Since(start).Seconds()
		st := paperbench.TakeJobStats()
		fig := Figure{
			Name:         mc.name,
			WallSeconds:  wall,
			Jobs:         st.Jobs,
			QueueSeconds: st.QueueSeconds,
		}
		for _, r := range rows {
			base := fmt.Sprintf("%s/%s", r.Op, r.Strategy)
			fig.Metrics = append(fig.Metrics,
				Metric{base + "/time", r.Time},
				Metric{base + "/peak_bytes", float64(r.PeakBytes)},
			)
		}
		rep.Figures = append(rep.Figures, fig)
	}
	return rep
}
