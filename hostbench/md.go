package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/paperbench"
	"repro/internal/particle"
	"repro/internal/refsolve"
	"repro/internal/vmpi"
)

// mdSpec is an MD workload: the application loop of paperbench.Run (silica
// melt, mdsim leapfrog, one long-range solver through the core library) at
// the paperbench.DefaultConfig density and accuracy.
type mdSpec struct {
	particles, ranks int
	solver           string
	machine          paperbench.Machine
	dist             particle.Dist
	dt, thermal      float64
	resort, track    bool // method B; maximum-movement tracking
	steps            int
	// energyTol and fieldTol are the Ewald oracle's tolerances.
	energyTol, fieldTol float64
}

// paperSpacing is the paper's mean ion spacing (829440 ions in a 248³
// box), the density paperbench.DefaultConfig selects with Side 0.
const paperSpacing = 2.6567

func (m mdSpec) workload() workload {
	// SilicaMelt rounds the count to a full lattice cube.
	n := particle.SilicaMelt(m.particles, 10, true, 0).N
	return workload{items: n, ranks: m.ranks, steps: m.steps, energyTol: m.energyTol, fieldTol: m.fieldTol, episode: m.episode}
}

// mdRank is one rank's contribution to an MD episode.
type mdRank struct {
	n        []int     // local particle count after each step
	q        []float64 // local charge sum after each step
	vt       []float64 // virtual seconds of each step
	phases   map[string]float64
	digest   [sha256.Size]byte
	initial  *solveOut
	runStats []api.RunStats
}

// vsecPhases lists the solver phases reported per step, with the
// paperbench.StepStat grouping: resort includes index creation, total
// includes the application-side resort.
var vsecPhases = map[string][]string{
	"sort":    {api.PhaseSort},
	"restore": {api.PhaseRestore},
	"resort":  {api.PhaseResort, api.PhaseResortCreate},
	"near":    {api.PhaseNear},
	"far":     {api.PhaseFar},
	"total":   {api.PhaseTotal, api.PhaseResort},
}

func phaseSums(c *vmpi.Comm) map[string]float64 {
	out := map[string]float64{}
	for name, parts := range vsecPhases {
		for _, p := range parts {
			out[name] += c.PhaseTime(p)
		}
	}
	return out
}

func (m mdSpec) episode(o episodeOpts) episode {
	steps := m.steps
	if o.setupOnly {
		steps = 0
	}
	return guard(steps, func(e *episode) {
		start := time.Now()
		gen := o.tr.now()
		s := particle.SilicaMelt(m.particles, paperSpacing*math.Cbrt(float64(m.particles)), true, o.seed)
		if m.thermal > 0 {
			particle.Thermalize(s, m.thermal, o.seed+2)
		}
		o.tr.host("setup.generate_s", gen)
		q0, qAbs := 0.0, 0.0
		for _, q := range s.Q {
			q0 += q
			qAbs += math.Abs(q)
		}

		var setupEnd time.Time
		stepMS := make([]float64, steps)
		var memPeak, heapLive uint64
		runStart := o.tr.now()
		st := vmpi.Run(vmpi.Config{
			Ranks:        m.ranks,
			Model:        m.machine.Model(m.ranks),
			ComputeScale: m.machine.ComputeScale,
			Workers:      o.workers,
		}, func(c *vmpi.Comm) {
			r := c.Rank()
			t := o.tr.now()
			l := particle.Distribute(c, s, m.dist, o.seed+1)
			t = o.tr.rank(r, "setup.distribute_s", t)
			h, err := core.Init(m.solver, c,
				core.WithBox(s.Box),
				core.WithAccuracy(paperbench.DefaultConfig().Accuracy),
				core.WithResort(m.resort),
			)
			if err != nil {
				panic(err)
			}
			sim := mdsim.New(c, h, l, m.dt)
			sim.TrackMovement = m.track
			t = o.tr.rank(r, "setup.init_s", t)
			if err := sim.Init(); err != nil {
				panic(err)
			}
			o.tr.rank(r, "setup.first_solve_s", t)
			out := &mdRank{n: make([]int, steps), q: make([]float64, steps), vt: make([]float64, steps)}
			if o.keepInitial {
				out.initial = &solveOut{
					pos:   append([]float64(nil), l.ActivePos()...),
					q:     append([]float64(nil), l.ActiveQ()...),
					pot:   append([]float64(nil), l.ActivePot()...),
					field: append([]float64(nil), l.ActiveField()...),
				}
			}
			if r == 0 {
				setupEnd = time.Now()
			}
			ph0 := phaseSums(c)
			for k := 0; k < steps; k++ {
				v0 := c.Time()
				t0 := time.Now()
				if err := sim.Step(); err != nil {
					panic(err)
				}
				o.tr.rankSpan(r, "mdsim.step_s", t0)
				if r == 0 {
					stepMS[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
					if rs, ok := sim.LastRunStats(); ok {
						out.runStats = append(out.runStats, rs)
					}
					mem, live := sampleMemory()
					memPeak, heapLive = max(memPeak, mem), max(heapLive, live)
				}
				if o.fault && r == 0 && k == 0 && l.N >= 2 {
					for d := 0; d < 3; d++ {
						l.Vel[d], l.Vel[3+d] = l.Vel[3+d], l.Vel[d]
					}
				}
				out.vt[k] = c.Time() - v0
				out.n[k] = l.N
				for _, q := range l.ActiveQ() {
					out.q[k] += q
				}
			}
			out.phases = phaseSums(c)
			for name, v := range ph0 {
				out.phases[name] = (out.phases[name] - v) / float64(max(steps, 1))
			}
			out.digest = mdDigest(l)
			c.SetResult(out)
		})
		o.tr.host("vmpi.run_s", runStart)
		e.setup = setupEnd.Sub(start).Seconds()
		e.stepMS = stepMS
		e.stats = st
		e.memPeak, e.heapLiveMax = memPeak, heapLive
		e.vstep = make([]float64, steps)
		e.phases = map[string]float64{}
		parts := make([][sha256.Size]byte, len(st.Values))
		n := make([]int, steps)
		q := make([]float64, steps)
		var initial []*solveOut
		for i, v := range st.Values {
			rr := v.(*mdRank)
			parts[i] = rr.digest
			for k := range rr.vt {
				e.vstep[k] = math.Max(e.vstep[k], rr.vt[k])
				n[k] += rr.n[k]
				q[k] += rr.q[k]
			}
			for name, v := range rr.phases {
				e.phases[name] = math.Max(e.phases[name], v)
			}
			if rr.initial != nil {
				initial = append(initial, rr.initial)
			}
		}
		e.digest = digestOf(parts)
		e.runStats = st.Values[0].(*mdRank).runStats
		for k := range n {
			if n[k] != s.N {
				e.failStep(k, "particle count %d, want %d", n[k], s.N)
			}
			if math.Abs(q[k]-q0) > 1e-9*qAbs {
				e.failStep(k, "total charge %g, want %g", q[k], q0)
			}
		}
		if o.keepInitial {
			e.initial = &solveOut{box: s.Box}
			for _, p := range initial {
				e.initial.pos = append(e.initial.pos, p.pos...)
				e.initial.q = append(e.initial.q, p.q...)
				e.initial.pot = append(e.initial.pot, p.pot...)
				e.initial.field = append(e.initial.field, p.field...)
			}
		}
	})
}

// mdDigest hashes a rank's complete final particle state.
func mdDigest(l *particle.Local) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(l.N))
	h.Write(b[:])
	n := l.N
	hashFloats(h, l.Pos[:3*n])
	hashFloats(h, l.Q[:n])
	hashFloats(h, l.Pot[:n])
	hashFloats(h, l.Field[:3*n])
	hashFloats(h, l.Vel[:3*n])
	hashFloats(h, l.Acc[:3*n])
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// ewaldCheck compares the initial solve's potentials and fields with a
// tight Ewald sum and returns the relative energy error and the RMS field
// error relative to the RMS field.
func ewaldCheck(s *solveOut) (energyErr, fieldErr float64) {
	n := len(s.q)
	pot := make([]float64, n)
	field := make([]float64, 3*n)
	refsolve.NewEwald(s.box, 1e-6).Compute(s.pos, s.q, pot, field)
	u := refsolve.Energy(s.q, s.pot)
	want := refsolve.Energy(s.q, pot)
	energyErr = math.Abs(u-want) / math.Max(math.Abs(want), 1e-300)
	var d2, f2 float64
	for i := range field {
		d := s.field[i] - field[i]
		d2 += d * d
		f2 += field[i] * field[i]
	}
	return energyErr, math.Sqrt(d2 / math.Max(f2, 1e-300))
}
