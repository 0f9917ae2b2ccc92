package paperbench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// identityWorkers are the pinned executor run-slot counts every identity
// test compares against the fully serialized Workers: 1 reference.
var identityWorkers = []int{2, 8}

// TestFigureWorkerCountIdentity is the contract the -workers flag
// advertises: each rendered vmpi-level figure table (Figure 10, the
// elastic-resize Figure R, the memory-budget Figure M) is byte-identical
// at any executor run-slot count. Worker count may only change host
// wall-clock time — a single virtual-time divergence here means the
// sharded executor leaked host scheduling into the virtual machine.
func TestFigureWorkerCountIdentity(t *testing.T) {
	prev := EngineWorkers()
	defer SetEngineWorkers(prev)

	for _, tc := range []struct {
		name   string
		render func() string
		want   []string
	}{
		{"fig10", func() string {
			return RenderFig10(JuRoPA().Name, Fig10(JuRoPA(), []int{4, 16, 64}))
		}, []string{"Figure 10"}},
		{"resize", func() string {
			return RenderFigResize(Juqueen().Name, FigResize(Juqueen()))
		}, []string{"Figure R"}},
		{"mem", func() string {
			return RenderFigMem(Juqueen().Name, FigMem(Juqueen()))
		}, []string{"Figure M", "exchange", "planned", "partition", "rotational"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "resize" && raceEnabled {
				t.Skip("full elastic sweeps exceed the test timeout under the race detector; make golden-resize diffs a -workers 1 run byte-for-byte")
			}
			SetEngineWorkers(1)
			ref := tc.render()
			for _, want := range tc.want {
				if !strings.Contains(ref, want) {
					t.Errorf("rendered table missing %q:\n%s", want, ref)
				}
			}
			for _, w := range identityWorkers {
				SetEngineWorkers(w)
				if got := tc.render(); got != ref {
					t.Errorf("workers=%d: figure bytes differ from workers=1:\n--- w=1\n%s--- w=%d\n%s", w, ref, w, got)
				}
			}
		})
	}
}

// TestTracedConfigWorkerCountIdentity extends the worker-count contract to
// MD configurations and the observability exports: the Figure 6/7/9
// tables, a traced configuration's particle digest, Chrome trace, and
// metrics dump must be byte-identical across run-slot counts — the event
// log carries per-rank virtual timestamps and payload sizes, so it catches
// ordering leaks the figure tables cannot. The obs16 case is the canonical
// 16-rank observability configuration behind make golden's trace and
// metrics files, at full fidelity.
func TestTracedConfigWorkerCountIdentity(t *testing.T) {
	prev := EngineWorkers()
	defer SetEngineWorkers(prev)

	small := DefaultConfig()
	small.Particles = 1728
	small.Ranks = 4
	small.Steps = 2
	small.Accuracy = 1e-2
	small.Thermal = 2.5
	traced := small
	traced.Solver = "p2nfft"
	traced.Resort = true
	traced.Trace = true

	type render struct{ figs, digest, trace, metrics string }
	for _, tc := range []struct {
		name string
		cfg  Config
		figs func() string
	}{
		{"small", traced, func() string {
			return RenderFig6(Fig6(small)) + RenderFig7(Fig7(small)) +
				RenderFig9("fmm", small.Machine.Name, Fig9(small, "fmm", []int{2, 4}))
		}},
		{"obs16", ObsConfig(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "obs16" && testing.Short() {
				t.Skip("full 16-rank observability run; skipped in -short")
			}
			run := func(w int) render {
				SetEngineWorkers(w)
				var r render
				if tc.figs != nil {
					r.figs = tc.figs()
				}
				res := runConfigs([]Config{tc.cfg})[0]
				var trace, metrics bytes.Buffer
				if err := obs.WriteChromeTrace(&trace, res.Events); err != nil {
					t.Fatal(err)
				}
				if err := obs.WriteMetrics(&metrics, res.Events); err != nil {
					t.Fatal(err)
				}
				r.digest, r.trace, r.metrics = res.Digest, trace.String(), metrics.String()
				return r
			}
			ref := run(1)
			if ref.digest == "" || ref.trace == "" || ref.metrics == "" || (tc.figs != nil && ref.figs == "") {
				t.Fatalf("empty render: figs=%d digest=%d trace=%d metrics=%d bytes",
					len(ref.figs), len(ref.digest), len(ref.trace), len(ref.metrics))
			}
			for _, w := range identityWorkers {
				got := run(w)
				if got.figs != ref.figs {
					t.Errorf("workers=%d: figure tables differ from workers=1:\n--- w=1\n%s\n--- w=%d\n%s", w, ref.figs, w, got.figs)
				}
				if got.digest != ref.digest {
					t.Errorf("workers=%d: particle state digest %s differs from workers=1 %s", w, got.digest, ref.digest)
				}
				if got.trace != ref.trace {
					t.Errorf("workers=%d: Chrome trace export differs from workers=1", w)
				}
				if got.metrics != ref.metrics {
					t.Errorf("workers=%d: metrics export differs from workers=1", w)
				}
			}
		})
	}
}
