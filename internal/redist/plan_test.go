package redist

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vmpi"
)

// The planner's contract (DESIGN.md §14): under any budget the result of
// every redistribution operation is byte-identical to the unbounded path,
// and the staged peak never exceeds max(budget, largest single destination
// block) — a destination that alone exceeds the budget gets a singleton
// round.

var planRanks = []int{2, 3, 5, 8, 16, 64}

var planBudgets = []int64{1, 64, 1 << 10, 1 << 20}

// planProbe is one rank's outcome: the delivered elements plus the plan's
// metered staging peak.
type planProbe struct {
	Out  []elem
	Peak int64
}

// planInputs builds deterministic per-rank inputs and a target function:
// most elements go to one pseudo-random rank, some are dropped, some are
// duplicated to a second rank (the ghost pattern), so the exchange
// exercises drops, fan-out, and skewed counts.
func planInputs(p, seed int) (inputs [][]elem, dests [][][]int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	inputs = make([][]elem, p)
	dests = make([][][]int, p)
	id := int64(0)
	for r := range inputs {
		n := 4 + rng.Intn(28)
		inputs[r] = make([]elem, n)
		dests[r] = make([][]int, n)
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: id, Val: rng.Float64()}
			id++
			switch rng.Intn(8) {
			case 0: // dropped
			case 1, 2: // duplicated
				dests[r][i] = []int{rng.Intn(p), rng.Intn(p)}
			default:
				dests[r][i] = []int{rng.Intn(p)}
			}
		}
	}
	return inputs, dests
}

// maxDestBytes returns the largest single (src,dst) block in bytes — the
// floor below which no budget can push the staged peak.
func maxDestBytes(p int, dests [][][]int, elemBytes int64) int64 {
	counts := make([][]int64, p)
	for r := range counts {
		counts[r] = make([]int64, p)
	}
	for r := range dests {
		for _, ds := range dests[r] {
			for _, d := range ds {
				counts[r][d]++
			}
		}
	}
	max := int64(0)
	for r := range counts {
		for _, n := range counts[r] {
			if b := n * elemBytes; b > max {
				max = b
			}
		}
	}
	return max
}

// runPlanExchange runs the exchange once and returns per-rank probes.
func runPlanExchange(p int, budget int64, inputs [][]elem, dests [][][]int) []planProbe {
	st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
		in := inputs[c.Rank()]
		d := dests[c.Rank()]
		pl := NewPlan(c, len(in), func(i int, dst []int) []int {
			return append(dst, d[i]...)
		}, Options{})
		c.SetResult(planProbe{Out: Execute(pl, in), Peak: pl.PeakBytes()})
	})
	probes := make([]planProbe, p)
	for r := range probes {
		probes[r] = st.Values[r].(planProbe)
	}
	return probes
}

// TestPlanExchangeMatchesUnbounded is the central property: across rank
// counts 2–64 and budgets down to a single byte, the
// bounded exchange delivers exactly the unbounded result on every rank,
// and the metered peak respects max(budget, largest destination block).
func TestPlanExchangeMatchesUnbounded(t *testing.T) {
	elemBytes := int64(16)
	for _, p := range planRanks {
		inputs, dests := planInputs(p, p)
		floor := maxDestBytes(p, dests, elemBytes)
		unbounded := runPlanExchange(p, 0, inputs, dests)
		for _, budget := range planBudgets {
			bounded := runPlanExchange(p, budget, inputs, dests)
			limit := budget
			if floor > limit {
				limit = floor
			}
			for r := range bounded {
				if !reflect.DeepEqual(bounded[r].Out, unbounded[r].Out) {
					t.Fatalf("p=%d budget=%d rank %d: bounded result diverges from unbounded",
						p, budget, r)
				}
				if bounded[r].Peak > limit {
					t.Errorf("p=%d budget=%d rank %d: staged peak %d exceeds max(budget, largest block)=%d",
						p, budget, r, bounded[r].Peak, limit)
				}
				if bounded[r].Peak > unbounded[r].Peak {
					t.Errorf("p=%d budget=%d rank %d: bounded peak %d above the unbounded staging total %d",
						p, budget, r, bounded[r].Peak, unbounded[r].Peak)
				}
			}
		}
	}
}

// TestPlanNeighborhoodMatchesUnbounded checks the neighborhood backend on
// a ring: the bounded rounds must reproduce the unbounded P2P result (self
// block first, then neighbors in list order) and keep the neighborhood
// decision itself budget-independent.
func TestPlanNeighborhoodMatchesUnbounded(t *testing.T) {
	type probe struct {
		Out  []elem
		Used bool
		Peak int64
	}
	for _, p := range []int{2, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		inputs := make([][]elem, p)
		moves := make([][]int, p) // -1 left, 0 stay, +1 right
		for r := range inputs {
			n := 3 + rng.Intn(12)
			inputs[r] = make([]elem, n)
			moves[r] = make([]int, n)
			for i := range inputs[r] {
				inputs[r][i] = elem{ID: int64(r*100 + i), Val: rng.Float64()}
				moves[r][i] = rng.Intn(3) - 1
			}
		}
		run := func(budget int64) []probe {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				neighbors := []int{(self + 1) % p, (self - 1 + p) % p}
				if p == 2 {
					neighbors = neighbors[:1]
				}
				in := inputs[self]
				mv := moves[self]
				pl := NewPlan(c, len(in), ToRank(func(i int) int {
					return (self + mv[i] + p) % p
				}), Options{Neighbors: neighbors})
				c.SetResult(probe{Out: Execute(pl, in), Used: pl.UsedNeighborhood(), Peak: pl.PeakBytes()})
			})
			probes := make([]probe, p)
			for r := range probes {
				probes[r] = st.Values[r].(probe)
			}
			return probes
		}
		ref := run(0)
		for _, budget := range []int64{0, 1, 48, 1 << 16} {
			got := run(budget)
			for r := range got {
				if !got[r].Used {
					t.Fatalf("p=%d budget=%d rank %d: ring targets fell back to all-to-all", p, budget, r)
				}
				if !reflect.DeepEqual(got[r].Out, ref[r].Out) {
					t.Fatalf("p=%d budget=%d rank %d: neighborhood result diverges", p, budget, r)
				}
			}
		}
	}
}

// TestPlanRemapMatchesUnbounded checks the block remap under budgets: the
// redistributed blocks must be byte-identical to the unbounded remap for
// both a full-world and a shrinking target partition.
func TestPlanRemapMatchesUnbounded(t *testing.T) {
	const p = 8
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]elem, p)
	id := int64(0)
	for r := range inputs {
		inputs[r] = make([]elem, 2+rng.Intn(20))
		for i := range inputs[r] {
			inputs[r][i] = elem{ID: id, Val: rng.Float64()}
			id++
		}
	}
	for _, newP := range []int{3, p} {
		run := func(budget int64) [][]elem {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				c.SetResult(RemapBlocks(c, inputs[c.Rank()], newP))
			})
			out := make([][]elem, p)
			for r := range out {
				out[r] = st.Values[r].([]elem)
			}
			return out
		}
		ref := run(0)
		for _, budget := range planBudgets {
			if got := run(budget); !reflect.DeepEqual(got, ref) {
				t.Fatalf("newP=%d budget=%d: bounded remap diverges", newP, budget)
			}
		}
	}
}

// TestPlanResortMatchesUnbounded checks the bounded resort: a random
// global permutation with stride-3 payloads must land every value in
// exactly the position the unbounded resort puts it, at any budget.
func TestPlanResortMatchesUnbounded(t *testing.T) {
	const p, perRank, stride = 5, 6, 3
	n := p * perRank
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(n)
	run := func(budget int64) [][]float64 {
		st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
			self := c.Rank()
			vals := make([]float64, perRank*stride)
			indices := make([]Index, perRank)
			for i := 0; i < perRank; i++ {
				g := self*perRank + i
				for s := 0; s < stride; s++ {
					vals[i*stride+s] = float64(g*stride + s)
				}
				indices[i] = MakeIndex(perm[g]/perRank, perm[g]%perRank)
			}
			c.SetResult(ResortFloats(c, vals, stride, indices, perRank))
		})
		out := make([][]float64, p)
		for r := range out {
			out[r] = st.Values[r].([]float64)
		}
		return out
	}
	ref := run(0)
	for _, budget := range planBudgets {
		if got := run(budget); !reflect.DeepEqual(got, ref) {
			t.Fatalf("budget=%d: bounded resort diverges", budget)
		}
	}
}

// TestExchangeBlocksMatchesAlltoall checks the sorts' block-exchange
// collective: under any budget it must return exactly what the unbounded
// copying collective returns, block per source rank in rank order.
func TestExchangeBlocksMatchesAlltoall(t *testing.T) {
	for _, p := range []int{2, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		sizes := make([][]int, p)
		for r := range sizes {
			sizes[r] = make([]int, p)
			for d := range sizes[r] {
				sizes[r][d] = rng.Intn(9)
			}
		}
		run := func(budget int64) [][][]elem {
			st := vmpi.Run(vmpi.Config{Ranks: p, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
				self := c.Rank()
				parts := make([][]elem, p)
				for d := range parts {
					parts[d] = make([]elem, sizes[self][d])
					for i := range parts[d] {
						parts[d][i] = elem{ID: int64(self*1000 + d*100 + i)}
					}
				}
				c.SetResult(ExchangeBlocks(c, parts))
			})
			out := make([][][]elem, p)
			for r := range out {
				out[r] = st.Values[r].([][]elem)
			}
			return out
		}
		ref := run(0)
		for _, budget := range planBudgets {
			if got := run(budget); !reflect.DeepEqual(got, ref) {
				t.Fatalf("p=%d budget=%d: bounded block exchange diverges", p, budget)
			}
		}
	}
}

// TestPlanMeterEmitsGauge checks the metering surface: a budgeted plan
// emits the redist/peak_bytes gauge and counter, an unmetered unbounded
// plan emits neither (the golden figures depend on that silence), and
// Options.Meter turns the meter on without a budget.
func TestPlanMeterEmitsGauge(t *testing.T) {
	run := func(budget int64, meter bool) *vmpi.Stats {
		return vmpi.Run(vmpi.Config{Ranks: 4, MaxExchangeBytes: budget}, func(c *vmpi.Comm) {
			items := make([]elem, 16)
			for i := range items {
				items[i] = elem{ID: int64(c.Rank()*16 + i)}
			}
			pl := NewPlan(c, len(items), ToRank(func(i int) int { return i % 4 }), Options{Meter: meter})
			Execute(pl, items)
		})
	}
	if st := run(0, false); st.Events.Counter(MeterPeakBytes) != 0 {
		t.Errorf("unmetered unbounded plan emitted %s", MeterPeakBytes)
	}
	for _, cse := range []struct {
		name   string
		budget int64
		meter  bool
	}{{"budget", 128, false}, {"meter", 0, true}} {
		st := run(cse.budget, cse.meter)
		peak, ok := st.Events.GaugeMax(MeterPeakBytes)
		if !ok || peak <= 0 {
			t.Errorf("%s: no %s gauge (peak %v ok %v)", cse.name, MeterPeakBytes, peak, ok)
		}
		if st.Events.Counter(MeterPeakBytes) <= 0 {
			t.Errorf("%s: no %s counter", cse.name, MeterPeakBytes)
		}
	}
}
