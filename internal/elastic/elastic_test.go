package elastic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/mdsim"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// fillLocal seeds rank r with n particles whose 14 state words are all
// distinct functions of the particle's global id, so any loss, duplication,
// or field mix-up in the remap is detectable.
func fillLocal(box particle.Box, r, n, stride int) *particle.Local {
	l := particle.NewLocal(box, n+4)
	for i := 0; i < n; i++ {
		g := float64(r*stride + i)
		l.Append(g, g+0.125, g+0.25, g+0.375, g+0.5, g+0.625, g+0.75)
		l.Acc[3*i], l.Acc[3*i+1], l.Acc[3*i+2] = g+1, g+1.125, g+1.25
		l.Pot[i] = g + 2
		l.Field[3*i], l.Field[3*i+1], l.Field[3*i+2] = g+3, g+3.125, g+3.25
	}
	return l
}

func checkParticle(l *particle.Local, i int, g float64) error {
	want := [14]float64{g, g + 0.125, g + 0.25, g + 0.375, g + 0.5, g + 0.625, g + 0.75,
		g + 1, g + 1.125, g + 1.25, g + 2, g + 3, g + 3.125, g + 3.25}
	got := [14]float64{l.Pos[3*i], l.Pos[3*i+1], l.Pos[3*i+2], l.Q[i],
		l.Vel[3*i], l.Vel[3*i+1], l.Vel[3*i+2],
		l.Acc[3*i], l.Acc[3*i+1], l.Acc[3*i+2], l.Pot[i],
		l.Field[3*i], l.Field[3*i+1], l.Field[3*i+2]}
	if got != want {
		return fmt.Errorf("particle %d (global %g): got %v, want %v", i, g, got, want)
	}
	return nil
}

// TestResizeShrinkMovesFullState shrinks 6→2 and verifies every surviving
// rank holds its exact block of the global sequence with all 14 state
// words intact, and that retirees exit empty-handed.
func TestResizeShrinkMovesFullState(t *testing.T) {
	const p, newP, perRank = 6, 2, 5
	box := particle.NewCubicBox(10, true)
	st := vmpi.Run(vmpi.Config{Ranks: p}, func(c *vmpi.Comm) {
		l := fillLocal(box, c.Rank(), perRank, perRank)
		c2, l2 := Resize(c, l, newP, nil)
		if c2 == nil {
			if c.Rank() < newP {
				panic("survivor got nil comm")
			}
			return
		}
		if c2.Size() != newP || c2.Epoch() != 1 {
			panic(fmt.Sprintf("resized comm: size %d epoch %d", c2.Size(), c2.Epoch()))
		}
		base := c2.Rank() * (p * perRank / newP)
		if l2.N != p*perRank/newP {
			panic(fmt.Sprintf("rank %d holds %d particles", c2.Rank(), l2.N))
		}
		for i := 0; i < l2.N; i++ {
			if err := checkParticle(l2, i, float64(base+i)); err != nil {
				panic(err.Error())
			}
		}
		c.SetResult(l2.N)
	})
	total := 0
	for _, v := range st.Values {
		if v != nil {
			total += v.(int)
		}
	}
	if total != p*perRank {
		t.Fatalf("survivors hold %d particles, want %d", total, p*perRank)
	}
}

// TestResizeGrowSeedsAdmittedRanks grows 2→5: survivors call Resize, the
// admitted ranks call Join, and afterwards every rank of the new world
// holds a balanced block with full state.
func TestResizeGrowSeedsAdmittedRanks(t *testing.T) {
	const p, newP, perRank = 2, 5, 10
	box := particle.NewCubicBox(10, true)
	st := vmpi.Run(vmpi.Config{Ranks: p, MaxRanks: newP}, func(c *vmpi.Comm) {
		var l *particle.Local
		if c.JoinEpoch() == 0 {
			l = fillLocal(box, c.Rank(), perRank, perRank)
			c, l = Resize(c, l, newP, nil)
		} else {
			l = Join(c, box, nil)
		}
		if c.Size() != newP {
			panic("wrong world size after grow")
		}
		base := c.Rank() * (p * perRank / newP)
		if l.N != p*perRank/newP {
			panic(fmt.Sprintf("rank %d holds %d particles", c.Rank(), l.N))
		}
		for i := 0; i < l.N; i++ {
			if err := checkParticle(l, i, float64(base+i)); err != nil {
				panic(err.Error())
			}
		}
		c.SetResult(l.N)
	})
	total := 0
	for _, v := range st.Values {
		if v != nil {
			total += v.(int)
		}
	}
	if total != p*perRank {
		t.Fatalf("world holds %d particles, want %d", total, p*perRank)
	}
	if ph := st.Phases[0][PhaseRemap]; ph <= 0 {
		t.Errorf("remap phase span not recorded: %v", st.Phases[0])
	}
}

// elasticSim is the canonical elastic driver loop shared by the end-to-end
// tests: simulate, resize through the schedule, keep simulating. Newcomers
// re-enter the body and join via JoinEpoch. Returns each surviving rank's
// (particles, kinetic, potential) as its result.
func elasticSim(s *particle.System, schedule []int, stepsPerStage int, capf Capacity) func(c *vmpi.Comm) {
	return func(c *vmpi.Comm) {
		var l *particle.Local
		stage := c.JoinEpoch()
		if stage == 0 {
			l = particle.Distribute(c, s, particle.DistRandom, 7)
		} else {
			l = Join(c, s.Box, capf)
		}
		fcs, err := core.Init("p2nfft", c,
			core.WithBox(s.Box), core.WithAccuracy(1e-3), core.WithResort(true),
			core.WithResizePolicy(core.ResizePolicy{Every: stepsPerStage, Sizes: schedule}))
		if err != nil {
			panic(err)
		}
		sim := mdsim.New(c, fcs, l, 0.005)
		if stage == 0 {
			if err := sim.Init(); err != nil {
				panic(err)
			}
		} else if err := sim.Rescale(c, l); err != nil {
			panic(err)
		}
		pol := fcs.ResizePolicy()
		for ; ; stage++ {
			for i := 0; i < pol.Every; i++ {
				if err := sim.Step(); err != nil {
					panic(err)
				}
			}
			if stage == len(pol.Sizes) {
				break
			}
			c2, l2 := Resize(c, sim.L, pol.SizeAt(stage), capf)
			if c2 == nil {
				return // retired
			}
			c = c2
			if err := sim.Rescale(c2, l2); err != nil {
				panic(err)
			}
		}
		k, u := sim.Energies()
		n := sim.TotalParticles()
		c.SetResult([3]float64{float64(sim.L.N), k, u})
		if n != s.N {
			panic(fmt.Sprintf("global particle count %d, want %d", n, s.N))
		}
	}
}

// TestElasticSimulationAcrossResizes runs the full stack — mdsim over core
// over the p2nfft pipeline — through a shrink/grow/shrink schedule and
// requires every particle to survive with finite energies.
func TestElasticSimulationAcrossResizes(t *testing.T) {
	s := particle.SilicaMelt(180, 10, true, 3)
	st := vmpi.Run(vmpi.Config{Ranks: 4, MaxRanks: 6}, elasticSim(s, []int{2, 6, 3}, 2, nil))
	if st.FinalSize != 3 || st.Epochs != 4 {
		t.Fatalf("final size %d epochs %d, want 3 and 4", st.FinalSize, st.Epochs)
	}
	total := 0.0
	for _, v := range st.Values {
		if v == nil {
			continue
		}
		r := v.([3]float64)
		total += r[0]
		if math.IsNaN(r[1]) || math.IsNaN(r[2]) {
			t.Fatalf("NaN energies %v", r)
		}
	}
	if int(total) != s.N {
		t.Fatalf("survivors hold %d particles, want %d", int(total), s.N)
	}
}

// TestShrinkBelowCapacityFallsBack gives the post-shrink world zero-slack
// arrays: method B's changed distribution cannot fit on every rank, so the
// capacity contract must fall back to restoring the original order
// (CounterCapacityFallback) instead of erroring or losing particles.
func TestShrinkBelowCapacityFallsBack(t *testing.T) {
	s := particle.SilicaMelt(180, 10, true, 3)
	tight := func(n int) int { return n }
	st := vmpi.Run(vmpi.Config{Ranks: 6}, elasticSim(s, []int{2}, 2, tight))
	if st.FinalSize != 2 {
		t.Fatalf("final size %d, want 2", st.FinalSize)
	}
	if n := st.Events.Counter(api.CounterCapacityFallback); n == 0 {
		t.Error("zero-slack shrink never exercised the method B capacity fallback")
	}
	total := 0.0
	for _, v := range st.Values {
		if v != nil {
			total += v.([3]float64)[0]
		}
	}
	if int(total) != s.N {
		t.Fatalf("survivors hold %d particles, want %d", int(total), s.N)
	}
}
