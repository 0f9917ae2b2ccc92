package paperbench

import (
	"strings"
	"testing"
)

// TestFig10SmallSweep checks the Figure 10 machinery at test-scale rank
// counts: every cell is positive, the table renders every rank count, and
// the neighborhood exchange beats the full merge-exchange network once
// there is more than a handful of ranks (the paper's §III-B motivation).
func TestFig10SmallSweep(t *testing.T) {
	ranks := []int{4, 16}
	pts := Fig10(Juqueen(), ranks)
	if len(pts) != len(ranks) {
		t.Fatalf("got %d points, want %d", len(pts), len(ranks))
	}
	for i, p := range pts {
		if p.Ranks != ranks[i] {
			t.Errorf("point %d has ranks %d, want %d", i, p.Ranks, ranks[i])
		}
		if p.Merge <= 0 || p.Neighborhood <= 0 {
			t.Errorf("ranks %d: non-positive cell: merge %v nbr %v", p.Ranks, p.Merge, p.Neighborhood)
		}
		if p.Ranks >= 16 && p.Merge <= p.Neighborhood {
			t.Errorf("ranks %d: merge sort (%v) should cost more than neighborhood exchange (%v)",
				p.Ranks, p.Merge, p.Neighborhood)
		}
	}
	out := RenderFig10(Juqueen().Name, pts)
	for _, want := range []string{"Figure 10", "merge sort", "neighborhood", "4 ", "16 "} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestFig10DriftBounded verifies the workload generator's contract: a
// drifted key never leaves the global key space and never moves an element
// further than one owner range, the property that makes the ±1 neighborhood
// sufficient (and the fallback panic in fig10Body unreachable).
func TestFig10DriftBounded(t *testing.T) {
	const p = 8
	maxKey := uint64(p)*fig10RangeWidth - 1
	moved, total := 0, 0
	for r := 0; r < p; r++ {
		for _, k := range fig10Keys(r) {
			for s := 0; s < fig10Steps; s++ {
				nk := fig10Drift(k, s, maxKey)
				if nk > maxKey {
					t.Fatalf("drift escaped key space: %d -> %d", k, nk)
				}
				oldOwner, newOwner := int(k/fig10RangeWidth), int(nk/fig10RangeWidth)
				if d := newOwner - oldOwner; d < -1 || d > 1 {
					t.Fatalf("drift moved owner by %d (key %d -> %d)", d, k, nk)
				}
				if nk != k {
					moved++
				}
				total++
				k = nk
			}
		}
	}
	if moved == 0 {
		t.Fatal("drift never moved any element; workload is static")
	}
	if moved > total/4 {
		t.Fatalf("drift moved %d of %d samples; data is no longer almost sorted", moved, total)
	}
}
