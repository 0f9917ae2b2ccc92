package paperbench

import (
	"fmt"

	"repro/internal/obs"
)

// Figure is one value of the paperbench -fig option: the figure's default
// run parameters, its panels, and the run its observability exports come
// from. Printing and benchmarking both walk the same table.
type Figure struct {
	// Name is the -fig value.
	Name string
	// Steps, Dt and Thermal are the figure's MD defaults, applied to the
	// base configuration unless Options overrides them.
	Steps   int
	Dt      float64
	Thermal float64
	// Ranks is the default rank-count sweep (nil for figures without one).
	Ranks []int
	// Sweep marks a figure whose rank counts are independent points: the
	// benchmark times each one on its own and reports a host row for it.
	Sweep bool
	// Panels are the figure's tables in print order.
	Panels []Panel
	// Obs runs the figure's observability configuration and returns the
	// event log that -trace-out and -metrics-out export.
	Obs func() *obs.Log
}

// Panel is one table of a figure.
type Panel struct {
	// Bench names the panel in benchmark reports (fig6 … fig9r, fig10l/r,
	// figresizel/r, figmeml/r).
	Bench string
	// Run runs the panel's experiments and returns the rendered table and
	// its virtual metrics.
	Run func(cfg Config, ranks []int) (string, []Metric)
}

// Metric is a single virtual value (seconds, or metered bytes for Figure
// M), named by a stable slash-separated path (e.g. "fmm/A/step3/total").
type Metric struct {
	Name string  `json:"name"`
	VSec float64 `json:"vsec"`
}

// Options are the command-line settings figures run under.
type Options struct {
	// Base carries particles, ranks, accuracy, seed and machine.
	Base Config
	// Steps and Dt override the figure defaults when positive, Thermal
	// when non-negative.
	Steps   int
	Dt      float64
	Thermal float64
	// Ranks overrides the figure's default sweep when non-nil.
	Ranks []int
}

// Setup resolves the configuration and rank counts f runs with under o.
func (f *Figure) Setup(o Options) (Config, []int) {
	cfg := o.Base
	cfg.Steps, cfg.Dt, cfg.Thermal = f.Steps, f.Dt, f.Thermal
	if o.Steps > 0 {
		cfg.Steps = o.Steps
	}
	if o.Dt > 0 {
		cfg.Dt = o.Dt
	}
	if o.Thermal >= 0 {
		cfg.Thermal = o.Thermal
	}
	ranks := f.Ranks
	if o.Ranks != nil {
		ranks = o.Ranks
	}
	return cfg, ranks
}

// Figures is the figure table, in -fig all order first: the first five
// entries are the paper's Figures 6–9.
var Figures = []*Figure{
	{Name: "6", Dt: 0.01, Obs: canonicalObs,
		Panels: []Panel{{"fig6", func(cfg Config, _ []int) (string, []Metric) {
			rows := Fig6(cfg)
			return RenderFig6(rows), fig6Metrics(rows)
		}}}},
	{Name: "7", Steps: 8, Dt: 0.01, Obs: canonicalObs,
		Panels: []Panel{{"fig7", func(cfg Config, _ []int) (string, []Metric) {
			series := Fig7(cfg)
			return RenderFig7(series), fig7Metrics(series)
		}}}},
	{Name: "8", Steps: 60, Dt: 0.01, Thermal: 2.5, Obs: canonicalObs,
		Panels: []Panel{{"fig8", func(cfg Config, _ []int) (string, []Metric) {
			series := Fig8(cfg)
			return RenderFig8(series), fig8Metrics(series)
		}}}},
	{Name: "9l", Steps: 25, Dt: 0.025, Thermal: 2.5, Ranks: []int{2, 4, 8}, Obs: canonicalObs,
		Panels: []Panel{{"fig9l", fig9Panel("fmm", JuRoPA())}}},
	{Name: "9r", Steps: 25, Dt: 0.025, Thermal: 2.5, Ranks: []int{2, 4, 8}, Obs: canonicalObs,
		Panels: []Panel{{"fig9r", fig9Panel("p2nfft", Juqueen())}}},
	{Name: "10", Ranks: Fig10DefaultRanks(), Sweep: true, Obs: canonicalObs,
		Panels: machinePanels("fig10", func(m Machine, ranks []int) (string, []Metric) {
			pts := Fig10(m, ranks)
			return RenderFig10(m.Name, pts), fig10Metrics(pts)
		})},
	{Name: "resize", Obs: FigResizeObs,
		Panels: machinePanels("figresize", func(m Machine, _ []int) (string, []Metric) {
			return RenderFigResize(m.Name, FigResize(m)), nil
		})},
	{Name: "mem", Obs: FigMemObs,
		Panels: machinePanels("figmem", func(m Machine, _ []int) (string, []Metric) {
			rows := FigMem(m)
			return RenderFigMem(m.Name, rows), figMemMetrics(rows)
		})},
}

// SelectFigures returns the figures a -fig value names, or nil for an
// unknown name. "all" selects the paper's Figures 6–9.
func SelectFigures(name string) []*Figure {
	if name == "all" {
		return Figures[:5]
	}
	for _, f := range Figures {
		if f.Name == name {
			return []*Figure{f}
		}
	}
	return nil
}

// canonicalObs is the observability run of Figures 6–10: ObsConfig.
func canonicalObs() *obs.Log { return mustRun(ObsConfig()).Events }

func fig9Panel(solver string, m Machine) func(Config, []int) (string, []Metric) {
	return func(cfg Config, ranks []int) (string, []Metric) {
		cfg.Machine = m
		pts := Fig9(cfg, solver, ranks)
		return RenderFig9(solver, m.Name, pts), fig9Metrics(solver, pts)
	}
}

// machinePanels builds a figure's two panels, one per machine model,
// named prefix+"l" (JuRoPA) and prefix+"r" (Juqueen).
func machinePanels(prefix string, run func(m Machine, ranks []int) (string, []Metric)) []Panel {
	panel := func(m Machine) func(Config, []int) (string, []Metric) {
		return func(_ Config, ranks []int) (string, []Metric) { return run(m, ranks) }
	}
	return []Panel{{prefix + "l", panel(JuRoPA())}, {prefix + "r", panel(Juqueen())}}
}

func fig6Metrics(rows []Fig6Row) []Metric {
	var m []Metric
	for _, r := range rows {
		base := fmt.Sprintf("%s/%s", r.Solver, r.Dist)
		m = append(m,
			Metric{base + "/total", r.Total},
			Metric{base + "/sort", r.Sort},
			Metric{base + "/restore", r.Restor},
		)
	}
	return m
}

func fig7Metrics(series []Fig7Series) []Metric {
	var m []Metric
	for _, s := range series {
		second := "restore"
		if s.Method == "B" {
			second = "resort"
		}
		for i := range s.Total {
			base := fmt.Sprintf("%s/%s/step%d", s.Solver, s.Method, i)
			m = append(m,
				Metric{base + "/sort", s.Sort[i]},
				Metric{base + "/" + second, s.Second[i]},
				Metric{base + "/total", s.Total[i]},
			)
		}
	}
	return m
}

func fig8Metrics(series []Fig8Series) []Metric {
	var m []Metric
	for _, s := range series {
		second := "restore"
		if s.Method == "B" {
			second = "resort"
		}
		for i := range s.Total {
			base := fmt.Sprintf("%s/%s/step%d", s.Solver, s.Method, i+1)
			m = append(m,
				Metric{base + "/sort", s.Sort[i]},
				Metric{base + "/" + second, s.Second[i]},
				Metric{base + "/redist", s.Redist[i]},
				Metric{base + "/total", s.Total[i]},
			)
		}
	}
	return m
}

func fig9Metrics(solver string, pts []Fig9Point) []Metric {
	var m []Metric
	for _, p := range pts {
		base := fmt.Sprintf("%s/ranks%d", solver, p.Ranks)
		m = append(m,
			Metric{base + "/totalA", p.TotalA},
			Metric{base + "/totalB", p.TotalB},
			Metric{base + "/totalBmv", p.TotalBMv},
		)
	}
	return m
}

func fig10Metrics(pts []Fig10Point) []Metric {
	var m []Metric
	for _, p := range pts {
		base := fmt.Sprintf("ranks%d", p.Ranks)
		m = append(m,
			Metric{base + "/merge", p.Merge},
			Metric{base + "/neighborhood", p.Neighborhood},
		)
	}
	return m
}

func figMemMetrics(rows []FigMemRow) []Metric {
	var m []Metric
	for _, r := range rows {
		base := fmt.Sprintf("%s/%s", r.Op, r.Strategy)
		m = append(m,
			Metric{base + "/time", r.Time},
			Metric{base + "/peak_bytes", float64(r.PeakBytes)},
		)
	}
	return m
}
