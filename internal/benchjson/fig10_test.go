package benchjson

import "testing"

func TestCollectFig10(t *testing.T) {
	ranks := []int{4, 8}
	rep := CollectFig10(ranks)
	if len(rep.Figures) != 2 {
		t.Fatalf("got %d figures, want 2 (one per machine)", len(rep.Figures))
	}
	for _, fig := range rep.Figures {
		if fig.Name != "fig10l" && fig.Name != "fig10r" {
			t.Errorf("unexpected figure name %q", fig.Name)
		}
		if len(fig.RankRows) != len(ranks) {
			t.Fatalf("%s: %d rank rows, want %d", fig.Name, len(fig.RankRows), len(ranks))
		}
		if len(fig.Metrics) != 2*len(ranks) {
			t.Errorf("%s: %d metrics, want %d", fig.Name, len(fig.Metrics), 2*len(ranks))
		}
		for i, row := range fig.RankRows {
			if row.Ranks != ranks[i] {
				t.Errorf("%s row %d: ranks %d, want %d", fig.Name, i, row.Ranks, ranks[i])
			}
			if row.WallSeconds <= 0 {
				t.Errorf("%s ranks %d: wall seconds %v, want > 0", fig.Name, row.Ranks, row.WallSeconds)
			}
			if row.HeapInuseBytes == 0 || row.SysBytes == 0 {
				t.Errorf("%s ranks %d: empty memory snapshot %+v", fig.Name, row.Ranks, row)
			}
			// Two experiments per rank count under the event engine: the
			// executor spawned every rank, and parked at least some of them.
			if row.ExecSpawned != int64(2*row.Ranks) {
				t.Errorf("%s ranks %d: exec spawned %d, want %d", fig.Name, row.Ranks, row.ExecSpawned, 2*row.Ranks)
			}
			if row.ExecParks <= 0 || row.ExecWakeups <= 0 {
				t.Errorf("%s ranks %d: exec meters empty: %+v", fig.Name, row.Ranks, row)
			}
		}
		// The sched accounting must have seen both strategy jobs per rank
		// count.
		if want := 2 * len(ranks); fig.Jobs != want {
			t.Errorf("%s: jobs %d, want %d", fig.Name, fig.Jobs, want)
		}
	}
	for _, m := range rep.Figures[0].Metrics {
		if m.VSec <= 0 {
			t.Errorf("metric %s has non-positive virtual seconds %v", m.Name, m.VSec)
		}
	}
}
