package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// assertMetrics checks that a run reports exactly the declared metrics,
// each with its declared unit.
func assertMetrics(t *testing.T, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(rep.metrics) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(rep.metrics), len(want))
	}
}

func TestDeclaredWorkloads(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
}

// TestSmoke runs every workload at tiny size, timed and traced, and checks
// the reported metrics and that every oracle passes.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	for name, w := range workloads(true) {
		t.Run(name, func(t *testing.T) {
			rep, err := run(w, options{seed: 7, seconds: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, rep, d.EndToEnd)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("timed run: %d of %d steps failed: %v", rep.failed, rep.attempted, rep.record["errors"])
			}
			for _, m := range d.EndToEnd {
				if v := rep.metrics[m.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, v)
				}
			}
			rep, err = run(w, options{seed: 7, seconds: 0.01, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, rep, d.PerLayer)
			if rep.failed != 0 {
				t.Errorf("traced run: %d of %d steps failed: %v", rep.failed, rep.attempted, rep.record["errors"])
			}
		})
	}
}

// TestFaultRaisesFailedShare corrupts one episode's result (one key
// dropped, or two velocities swapped) and expects the checks to fail its
// steps, in the timed and in the traced run.
func TestFaultRaisesFailedShare(t *testing.T) {
	for name, w := range workloads(true) {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := run(w, options{seed: 7, seconds: 0.01, trace: traced, fault: true})
				if err != nil {
					t.Fatal(err)
				}
				if share := rep.record["failed_step_share"].(float64); share <= 0 || rep.failed == 0 {
					t.Errorf("traced=%v: failed_step_share %g after a corrupted episode", traced, share)
				}
				if !traced && rep.metrics["ok_step_share"].Value >= 1 {
					t.Errorf("ok_step_share %g after a corrupted episode", rep.metrics["ok_step_share"].Value)
				}
			}
		})
	}
}

func TestPredictionsNameDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	b, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Predictions []struct {
			Layer, Moves, On []string
			UnchangedOn      []string `json:"unchanged_on"`
		}
	}
	if err := json.Unmarshal(b, &p); err != nil {
		t.Fatal(err)
	}
	has := func(list []struct{ Name, Unit string }, n string) bool {
		return slices.ContainsFunc(list, func(m struct{ Name, Unit string }) bool { return m.Name == n })
	}
	for _, row := range p.Predictions {
		for _, n := range row.Layer {
			if !has(d.PerLayer, n) {
				t.Errorf("prediction names undeclared layer metric %s", n)
			}
		}
		for _, n := range row.Moves {
			if !has(d.EndToEnd, n) {
				t.Errorf("prediction names undeclared end-to-end metric %s", n)
			}
		}
		for _, n := range slices.Concat(row.On, row.UnchangedOn) {
			if !slices.Contains(workloadNames(), n) {
				t.Errorf("prediction names unknown workload %s", n)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	v := make([]float64, 40)
	for i := range v {
		v[i] = float64(40 - i)
	}
	got, pct := tailPercentile(v)
	if got != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %g at p%g, want 30 at p75", got, pct)
	}
}
