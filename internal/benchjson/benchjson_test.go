package benchjson

import (
	"path/filepath"
	"testing"

	"repro/internal/paperbench"
)

// smallOptions is a miniature Figures 6–9 configuration: few particles,
// two ranks, two MD steps.
func smallOptions() paperbench.Options {
	base := paperbench.DefaultConfig()
	base.Particles = 256
	base.Ranks = 2
	base.Accuracy = 1e-1
	return paperbench.Options{Base: base, Steps: 2, Thermal: -1, Ranks: []int{2}}
}

// TestCollect runs the bench loop per -fig selection and checks the
// report's structure (figures in order, wall clock, jobs, metrics, host
// rows for the sweep) and the write/read round trip. Where a committed
// report covers the selection, the matching virtual metrics must be
// reproduced exactly.
func TestCollect(t *testing.T) {
	paper := paperbench.Options{Base: paperbench.DefaultConfig(), Thermal: -1}
	fig10 := paper
	fig10.Ranks = []int{64, 256}
	cases := []struct {
		fig      string
		o        paperbench.Options
		figures  []string
		rows     []int  // rank counts with a host row, per figure
		baseline string // committed report the virtual metrics must match
		compared int    // metrics shared with the baseline
	}{
		{fig: "all", o: smallOptions(), figures: []string{"fig6", "fig7", "fig8", "fig9l", "fig9r"}},
		{fig: "10", o: fig10, figures: []string{"fig10l", "fig10r"}, rows: fig10.Ranks,
			baseline: "BENCH_5.json", compared: 8},
		{fig: "mem", o: paper, figures: []string{"figmeml", "figmemr"},
			baseline: "BENCH_4.json", compared: 20},
	}
	for _, c := range cases {
		t.Run(c.fig, func(t *testing.T) {
			rep := Collect(paperbench.SelectFigures(c.fig), c.o)
			if rep.Schema != Schema {
				t.Errorf("schema = %q, want %q", rep.Schema, Schema)
			}
			if rep.Host.NumCPU < 1 || rep.Host.GOMAXPROCS < 1 {
				t.Errorf("bad host info: %+v", rep.Host)
			}
			if len(rep.Figures) != len(c.figures) {
				t.Fatalf("got %d figures, want %v", len(rep.Figures), c.figures)
			}
			for i, f := range rep.Figures {
				if f.Name != c.figures[i] {
					t.Errorf("figure %d is %q, want %q", i, f.Name, c.figures[i])
				}
				if f.WallSeconds <= 0 || f.Jobs <= 0 {
					t.Errorf("%s: wall_seconds %v, jobs %d, want both > 0", f.Name, f.WallSeconds, f.Jobs)
				}
				if len(f.Metrics) == 0 {
					t.Errorf("%s: no metrics", f.Name)
				}
				for _, m := range f.Metrics {
					if m.Name == "" {
						t.Errorf("%s: metric with empty name", f.Name)
					}
				}
				checkRows(t, f, c.rows)
			}
			// fig6 carries 2 solvers x 3 distributions x 3 values.
			if f := rep.Figures[0]; f.Name == "fig6" && len(f.Metrics) != 18 {
				t.Errorf("fig6: %d metrics, want 18", len(f.Metrics))
			}

			path := filepath.Join(t.TempDir(), "bench.json")
			if err := WriteFile(rep, path); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			back, err := ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if d := Diff(back, rep); d.Compared == 0 || len(d.VSec) != 0 || len(d.Missing) != 0 || len(d.Added) != 0 {
				t.Errorf("round trip changed the report:\n%s", d.Format())
			}

			if c.baseline == "" {
				return
			}
			base, err := ReadFile(filepath.Join("..", "..", c.baseline))
			if err != nil {
				t.Fatal(err)
			}
			if d := Diff(base, rep); d.Compared != c.compared || len(d.VSec) != 0 {
				t.Errorf("against %s: %d metrics compared (want %d), %d changed:\n%s",
					c.baseline, d.Compared, c.compared, len(d.VSec), d.Format())
			}
		})
	}
}

// checkRows verifies a figure's host rows: one per swept rank count, each
// with wall clock, a memory snapshot and executor meters.
func checkRows(t *testing.T, f Figure, ranks []int) {
	t.Helper()
	if len(f.RankRows) != len(ranks) {
		t.Fatalf("%s: %d rank rows, want %d", f.Name, len(f.RankRows), len(ranks))
	}
	// Two experiments per rank count, one per strategy.
	if len(ranks) > 0 && f.Jobs != 2*len(ranks) {
		t.Errorf("%s: jobs %d, want %d", f.Name, f.Jobs, 2*len(ranks))
	}
	for i, row := range f.RankRows {
		if row.Ranks != ranks[i] {
			t.Errorf("%s row %d: ranks %d, want %d", f.Name, i, row.Ranks, ranks[i])
		}
		if row.WallSeconds <= 0 {
			t.Errorf("%s ranks %d: wall seconds %v, want > 0", f.Name, row.Ranks, row.WallSeconds)
		}
		if row.HeapInuseBytes == 0 || row.SysBytes == 0 {
			t.Errorf("%s ranks %d: empty memory snapshot %+v", f.Name, row.Ranks, row)
		}
		// The executor spawned every rank of both experiments and parked
		// at least some of them.
		if row.ExecSpawned != int64(2*row.Ranks) {
			t.Errorf("%s ranks %d: exec spawned %d, want %d", f.Name, row.Ranks, row.ExecSpawned, 2*row.Ranks)
		}
		if row.ExecParks <= 0 || row.ExecWakeups <= 0 {
			t.Errorf("%s ranks %d: exec meters empty: %+v", f.Name, row.Ranks, row)
		}
	}
}

// TestCollectDeterministicVsec verifies that the virtual-second metrics —
// unlike the wall-clock fields — are identical across repeated collections.
func TestCollectDeterministicVsec(t *testing.T) {
	figs := paperbench.SelectFigures("all")
	a := Collect(figs, smallOptions())
	b := Collect(figs, smallOptions())
	for i, fa := range a.Figures {
		fb := b.Figures[i]
		if fa.Name != fb.Name || len(fa.Metrics) != len(fb.Metrics) {
			t.Fatalf("figure mismatch at %d: %s vs %s", i, fa.Name, fb.Name)
		}
		for j, ma := range fa.Metrics {
			mb := fb.Metrics[j]
			if ma.Name != mb.Name || ma.VSec != mb.VSec {
				t.Errorf("%s: metric %d differs: %v vs %v", fa.Name, j, ma, mb)
			}
		}
	}
}
