package benchjson

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// ReadFile loads a report previously written by WriteFile. It rejects
// documents whose schema field does not match Schema, so a delta is never
// computed against an unrelated JSON file.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchjson: %s has schema %q, want %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}

// WallDelta compares one figure's wall-clock time across two reports.
type WallDelta struct {
	Figure    string
	Base, Cur float64
}

// MetricDelta is one virtual-second metric whose value changed between the
// baseline and the current report. Virtual seconds are deterministic, so
// any change means the implementation's cost behavior changed — a delta
// report treats these as the headline, not noise.
type MetricDelta struct {
	Figure, Name string
	Base, Cur    float64
}

// RowDelta pairs one rank count's host measurements across two reports'
// sweep figures (the Figure 10 rank_rows): wall clock, live heap, and the
// event executor's park/wakeup meters.
type RowDelta struct {
	Figure    string
	Ranks     int
	Base, Cur RankRow
}

// Delta is the comparison of a current report against a baseline.
type Delta struct {
	Base, Cur *Report
	// Wall pairs up per-figure wall-clock times (figures present in both).
	Wall []WallDelta
	// Rows pairs up per-rank-count host rows for sweep figures carrying
	// rank_rows in both reports, in current-report order.
	Rows []RowDelta
	// VSec lists the virtual-second metrics that changed.
	VSec []MetricDelta
	// Compared counts the vsec metrics present in both reports.
	Compared int
	// Missing and Added name "figure/metric" paths present in only the
	// baseline or only the current report.
	Missing, Added []string
}

// Diff compares cur against base, matching figures by name and metrics by
// (figure, name).
func Diff(base, cur *Report) *Delta {
	d := &Delta{Base: base, Cur: cur}
	baseFigs := map[string]Figure{}
	for _, f := range base.Figures {
		baseFigs[f.Name] = f
	}
	curFigs := map[string]Figure{}
	for _, f := range cur.Figures {
		curFigs[f.Name] = f
	}
	for _, f := range cur.Figures {
		bf, ok := baseFigs[f.Name]
		if !ok {
			for _, m := range f.Metrics {
				d.Added = append(d.Added, f.Name+"/"+m.Name)
			}
			continue
		}
		d.Wall = append(d.Wall, WallDelta{Figure: f.Name, Base: bf.WallSeconds, Cur: f.WallSeconds})
		baseRows := map[int]RankRow{}
		for _, r := range bf.RankRows {
			baseRows[r.Ranks] = r
		}
		for _, r := range f.RankRows {
			br, ok := baseRows[r.Ranks]
			if !ok {
				d.Added = append(d.Added, fmt.Sprintf("%s/ranks%d (host row)", f.Name, r.Ranks))
				continue
			}
			d.Rows = append(d.Rows, RowDelta{Figure: f.Name, Ranks: r.Ranks, Base: br, Cur: r})
		}
		baseMetrics := map[string]float64{}
		for _, m := range bf.Metrics {
			baseMetrics[m.Name] = m.VSec
		}
		curNames := map[string]bool{}
		for _, m := range f.Metrics {
			curNames[m.Name] = true
			bv, ok := baseMetrics[m.Name]
			if !ok {
				d.Added = append(d.Added, f.Name+"/"+m.Name)
				continue
			}
			d.Compared++
			if bv != m.VSec {
				d.VSec = append(d.VSec, MetricDelta{Figure: f.Name, Name: m.Name, Base: bv, Cur: m.VSec})
			}
		}
		for _, m := range bf.Metrics {
			if !curNames[m.Name] {
				d.Missing = append(d.Missing, f.Name+"/"+m.Name)
			}
		}
	}
	for _, f := range base.Figures {
		if _, ok := curFigs[f.Name]; !ok {
			for _, m := range f.Metrics {
				d.Missing = append(d.Missing, f.Name+"/"+m.Name)
			}
		}
	}
	sort.Strings(d.Missing)
	sort.Strings(d.Added)
	return d
}

// Format renders the delta as a human-readable report: the per-figure
// wall-clock comparison (the host-performance signal) followed by the
// virtual-second verdict (the determinism signal).
func (d *Delta) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark delta vs baseline (created %s, %s %s/%s)\n",
		d.Base.CreatedAt, d.Base.Host.GoVersion, d.Base.Host.GOOS, d.Base.Host.GOARCH)
	fmt.Fprintf(&b, "%-8s %12s %12s %8s\n", "figure", "base wall", "cur wall", "ratio")
	var baseTotal, curTotal float64
	for _, w := range d.Wall {
		baseTotal += w.Base
		curTotal += w.Cur
		fmt.Fprintf(&b, "%-8s %11.3fs %11.3fs %7.2fx\n", w.Figure, w.Base, w.Cur, ratio(w.Cur, w.Base))
	}
	fmt.Fprintf(&b, "%-8s %11.3fs %11.3fs %7.2fx\n", "total", baseTotal, curTotal, ratio(curTotal, baseTotal))
	if len(d.Rows) > 0 {
		fmt.Fprintf(&b, "host rows (wall seconds, heap MiB, executor parks/wakeups):\n")
		fmt.Fprintf(&b, "  %-8s %6s %10s %10s %6s %9s %9s %6s %12s %12s\n",
			"figure", "ranks", "base wall", "cur wall", "ratio", "base heap", "cur heap", "ratio", "parks", "wakeups")
		for _, r := range d.Rows {
			fmt.Fprintf(&b, "  %-8s %6d %9.3fs %9.3fs %5.2fx %8.1fM %8.1fM %5.2fx %12d %12d\n",
				r.Figure, r.Ranks,
				r.Base.WallSeconds, r.Cur.WallSeconds, ratio(r.Cur.WallSeconds, r.Base.WallSeconds),
				mib(r.Base.HeapInuseBytes), mib(r.Cur.HeapInuseBytes),
				ratio(mib(r.Cur.HeapInuseBytes), mib(r.Base.HeapInuseBytes)),
				r.Cur.ExecParks, r.Cur.ExecWakeups)
		}
	}
	switch {
	case d.Compared == 0:
		fmt.Fprintf(&b, "virtual seconds: no metrics in common with the baseline\n")
	case len(d.VSec) == 0:
		fmt.Fprintf(&b, "virtual seconds: %d metrics compared, all identical\n", d.Compared)
	default:
		fmt.Fprintf(&b, "virtual seconds: %d metrics compared, %d CHANGED:\n", d.Compared, len(d.VSec))
		for _, m := range d.VSec {
			fmt.Fprintf(&b, "  %s/%s: %.6e -> %.6e\n", m.Figure, m.Name, m.Base, m.Cur)
		}
	}
	if len(d.Missing) > 0 {
		fmt.Fprintf(&b, "missing in current report: %s\n", strings.Join(d.Missing, ", "))
	}
	if len(d.Added) > 0 {
		fmt.Fprintf(&b, "added in current report: %s\n", strings.Join(d.Added, ", "))
	}
	return b.String()
}

func ratio(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return cur / base
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }
