package vmpi

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

// run is a test helper executing f on n ranks with the default network.
func run(t *testing.T, n int, f func(c *Comm)) *Stats {
	t.Helper()
	return Run(Config{Ranks: n}, f)
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 7)
	st := run(t, 7, func(c *Comm) {
		if c.Size() != 7 {
			t.Errorf("Size = %d, want 7", c.Size())
		}
		c.SetResult(c.Rank())
	})
	for r, v := range st.Values {
		got := v.(int)
		if got != r {
			t.Errorf("rank %d reported %d", r, got)
		}
		seen[got] = true
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d missing", r)
		}
	}
}

func TestSendRecv(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, []float64{1, 2, 3}, 1, 42)
		} else {
			got := Recv[float64](c, 0, 42)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			data := []int64{10, 20}
			Send(c, data, 1, 0)
			data[0] = 999 // must not affect receiver
			Send(c, []int64{}, 1, 1)
		} else {
			got := Recv[int64](c, 0, 0)
			Recv[int64](c, 0, 1)
			if got[0] != 10 {
				t.Errorf("payload aliased: got %v", got)
			}
		}
	})
}

func TestTagMatchingOrder(t *testing.T) {
	// Messages with distinct tags can be received out of send order.
	run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, []int{1}, 1, 100)
			Send(c, []int{2}, 1, 200)
		} else {
			b := Recv[int](c, 0, 200)
			a := Recv[int](c, 0, 100)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("tag matching wrong: a=%v b=%v", a, b)
			}
		}
	})
}

func TestFIFOPerTag(t *testing.T) {
	run(t, 2, func(c *Comm) {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				Send(c, []int{i}, 1, 7)
			}
		} else {
			for i := 0; i < n; i++ {
				got := Recv[int](c, 0, 7)
				if got[0] != i {
					t.Fatalf("message %d arrived as %d", i, got[0])
				}
			}
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	const p = 5
	run(t, p, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		got := Sendrecv(c, []int{c.Rank()}, right, left, 3)
		if got[0] != left {
			t.Errorf("rank %d: got %d from left, want %d", c.Rank(), got[0], left)
		}
	})
}

func TestIsendIrecv(t *testing.T) {
	const p = 4
	run(t, p, func(c *Comm) {
		reqs := make([]*Request[int], 0, p-1)
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				Isend(c, []int{c.Rank() * 10}, r, 9)
				reqs = append(reqs, Irecv[int](c, r, 9))
			}
		}
		i := 0
		for r := 0; r < p; r++ {
			if r == c.Rank() {
				continue
			}
			got := reqs[i].Wait()
			if got[0] != r*10 {
				t.Errorf("rank %d from %d: got %d", c.Rank(), r, got[0])
			}
			i++
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8, 13} {
		run(t, p, func(c *Comm) {
			for i := 0; i < 3; i++ {
				Barrier(c)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 16} {
		for root := 0; root < p; root += max(1, p/3) {
			st := Run(Config{Ranks: p}, func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.5, -1, 7}
				}
				got := Bcast(c, data, root)
				c.SetResult(got)
			})
			for r, v := range st.Values {
				got := v.([]float64)
				if len(got) != 3 || got[0] != 3.5 || got[1] != -1 || got[2] != 7 {
					t.Errorf("p=%d root=%d rank %d: Bcast = %v", p, root, r, got)
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 9} {
		st := Run(Config{Ranks: p}, func(c *Comm) {
			data := []int{c.Rank() + 1, 2 * (c.Rank() + 1)}
			c.SetResult(Reduce(c, data, Sum[int], 0))
		})
		want := p * (p + 1) / 2
		got := st.Values[0].([]int)
		if got[0] != want || got[1] != 2*want {
			t.Errorf("p=%d: Reduce = %v, want [%d %d]", p, got, want, 2*want)
		}
		for r := 1; r < p; r++ {
			if st.Values[r].([]int) != nil {
				t.Errorf("p=%d: non-root rank %d got non-nil reduce result", p, r)
			}
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		st := Run(Config{Ranks: p}, func(c *Comm) {
			mx := Allreduce(c, []float64{float64(c.Rank())}, Max[float64])
			mn := Allreduce(c, []float64{float64(c.Rank())}, Min[float64])
			c.SetResult([2]float64{mx[0], mn[0]})
		})
		for r, v := range st.Values {
			got := v.([2]float64)
			if got[0] != float64(p-1) || got[1] != 0 {
				t.Errorf("p=%d rank %d: max/min = %v", p, r, got)
			}
		}
	}
}

func TestAllreduceVal(t *testing.T) {
	st := Run(Config{Ranks: 6}, func(c *Comm) {
		c.SetResult(AllreduceVal(c, c.Rank()+1, Sum[int]))
	})
	for r, v := range st.Values {
		if v.(int) != 21 {
			t.Errorf("rank %d: AllreduceVal = %v, want 21", r, v)
		}
	}
}

func TestGatherBlocksVariableSizes(t *testing.T) {
	const p = 5
	st := Run(Config{Ranks: p}, func(c *Comm) {
		data := make([]int, c.Rank()) // rank r contributes r elements
		for i := range data {
			data[i] = c.Rank()*100 + i
		}
		c.SetResult(GatherBlocks(c, data, 2))
	})
	blocks := st.Values[2].([][]int)
	for r := 0; r < p; r++ {
		if len(blocks[r]) != r {
			t.Fatalf("block %d has %d elements, want %d", r, len(blocks[r]), r)
		}
		for i, v := range blocks[r] {
			if v != r*100+i {
				t.Errorf("block %d[%d] = %d", r, i, v)
			}
		}
	}
	for r := 0; r < p; r++ {
		if r != 2 && st.Values[r] != nil && st.Values[r].([][]int) != nil {
			t.Errorf("non-root %d got data", r)
		}
	}
}

func TestScatterBlocks(t *testing.T) {
	const p = 4
	st := Run(Config{Ranks: p}, func(c *Comm) {
		var blocks [][]int
		if c.Rank() == 1 {
			blocks = [][]int{{0}, {10, 11}, {20}, {30, 31, 32}}
		}
		c.SetResult(ScatterBlocks(c, blocks, 1))
	})
	wantLens := []int{1, 2, 1, 3}
	for r, v := range st.Values {
		got := v.([]int)
		if len(got) != wantLens[r] || got[0] != r*10 {
			t.Errorf("rank %d: scatter = %v", r, got)
		}
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6, 8} {
		st := Run(Config{Ranks: p}, func(c *Comm) {
			c.SetResult(Allgather(c, []int{c.Rank() * 7}))
		})
		for r, v := range st.Values {
			got := v.([]int)
			if len(got) != p {
				t.Fatalf("p=%d rank %d: len = %d", p, r, len(got))
			}
			for i, x := range got {
				if x != i*7 {
					t.Errorf("p=%d rank %d: got[%d] = %d, want %d", p, r, i, x, i*7)
				}
			}
		}
	}
}

func TestAllgatherBlocksVariable(t *testing.T) {
	const p = 4
	st := Run(Config{Ranks: p}, func(c *Comm) {
		data := make([]byte, c.Rank()+1)
		for i := range data {
			data[i] = byte(c.Rank())
		}
		c.SetResult(AllgatherBlocks(c, data))
	})
	for r, v := range st.Values {
		blocks := v.([][]byte)
		for src, b := range blocks {
			if len(b) != src+1 {
				t.Errorf("rank %d block %d: len %d, want %d", r, src, len(b), src+1)
			}
			for _, x := range b {
				if int(x) != src {
					t.Errorf("rank %d block %d holds %d", r, src, x)
				}
			}
		}
	}
}

func TestAlltoallVariable(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		st := Run(Config{Ranks: p}, func(c *Comm) {
			parts := make([][]int, p)
			for d := 0; d < p; d++ {
				// rank r sends d+1 copies of r*100+d to rank d
				parts[d] = make([]int, d+1)
				for i := range parts[d] {
					parts[d][i] = c.Rank()*100 + d
				}
			}
			c.SetResult(Alltoall(c, parts))
		})
		for r, v := range st.Values {
			recv := v.([][]int)
			for src, b := range recv {
				if len(b) != r+1 {
					t.Fatalf("p=%d rank %d from %d: len %d, want %d", p, r, src, len(b), r+1)
				}
				for _, x := range b {
					if x != src*100+r {
						t.Errorf("p=%d rank %d from %d: value %d", p, r, src, x)
					}
				}
			}
		}
	}
}

func TestScanExscan(t *testing.T) {
	const p = 6
	st := Run(Config{Ranks: p}, func(c *Comm) {
		in := Scan(c, []int{c.Rank() + 1}, Sum[int])
		ex := Exscan(c, []int{c.Rank() + 1}, Sum[int])
		c.SetResult([2]int{in[0], ex[0]})
	})
	for r, v := range st.Values {
		got := v.([2]int)
		wantIn := (r + 1) * (r + 2) / 2
		wantEx := r * (r + 1) / 2
		if got[0] != wantIn || got[1] != wantEx {
			t.Errorf("rank %d: scan=%d exscan=%d, want %d %d", r, got[0], got[1], wantIn, wantEx)
		}
	}
}

func TestSplit(t *testing.T) {
	const p = 8
	st := Run(Config{Ranks: p}, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		// Even ranks form one communicator, odd the other.
		sum := AllreduceVal(sub, c.Rank(), Sum[int])
		c.SetResult([3]int{sub.Rank(), sub.Size(), sum})
	})
	for r, v := range st.Values {
		got := v.([3]int)
		if got[1] != 4 {
			t.Errorf("rank %d: subcomm size = %d", r, got[1])
		}
		if got[0] != r/2 {
			t.Errorf("rank %d: subrank = %d, want %d", r, got[0], r/2)
		}
		wantSum := 0 + 2 + 4 + 6
		if r%2 == 1 {
			wantSum = 1 + 3 + 5 + 7
		}
		if got[2] != wantSum {
			t.Errorf("rank %d: subcomm sum = %d, want %d", r, got[2], wantSum)
		}
	}
}

func TestSplitUndefined(t *testing.T) {
	run(t, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("negative color should yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d, want 3", sub.Size())
		}
	})
}

func TestDupIsolatesMessages(t *testing.T) {
	run(t, 2, func(c *Comm) {
		d := c.Dup()
		if c.Rank() == 0 {
			Send(c, []int{1}, 1, 5)
			Send(d, []int{2}, 1, 5)
		} else {
			// Receive from the dup first: contexts must not cross-match.
			got := Recv[int](d, 0, 5)
			if got[0] != 2 {
				t.Errorf("dup recv = %d, want 2", got[0])
			}
			got = Recv[int](c, 0, 5)
			if got[0] != 1 {
				t.Errorf("orig recv = %d, want 1", got[0])
			}
		}
	})
}

func TestVirtualClockAdvances(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(1.0)
			Send(c, make([]float64, 1000), 1, 0)
		} else {
			Recv[float64](c, 0, 0)
		}
	})
	// Receiver's clock must reflect the sender's compute time (causality).
	if st.Clocks[1] < 1.0 {
		t.Errorf("receiver clock %g < sender compute 1.0: causality violated", st.Clocks[1])
	}
	if st.Clocks[0] < 1.0 {
		t.Errorf("sender clock %g < compute time", st.Clocks[0])
	}
}

func TestVirtualClockDeterminism(t *testing.T) {
	// The same program must yield bit-identical virtual clocks across runs,
	// regardless of host scheduling.
	prog := func(c *Comm) {
		data := make([]float64, 128*(c.Rank()+1))
		all := Allgather(c, data)
		c.Compute(float64(len(all)) * 1e-9)
		Barrier(c)
		parts := make([][]float64, c.Size())
		for i := range parts {
			parts[i] = make([]float64, 64)
		}
		Alltoall(c, parts)
	}
	ref := Run(Config{Ranks: 8}, prog)
	for i := 0; i < 5; i++ {
		got := Run(Config{Ranks: 8}, prog)
		for r := range ref.Clocks {
			if got.Clocks[r] != ref.Clocks[r] {
				t.Fatalf("run %d rank %d: clock %g != %g", i, r, got.Clocks[r], ref.Clocks[r])
			}
		}
	}
}

func TestTorusVsSwitchedNeighborExchange(t *testing.T) {
	// A neighbor-only exchange must be relatively cheaper on the torus than
	// an all-to-all of the same total volume, compared to the same programs
	// on the switched model. This is the crossover mechanism behind the
	// paper's Fig. 9 (right). Message sizes are bandwidth-dominated so the
	// torus hop penalty (not base latency) drives the difference.
	const p = 64
	const volume = 26 << 18 // total bytes sent per rank in both patterns
	neighbor := func(c *Comm) {
		g := CartCreate(c, []int{4, 4, 4}, []bool{true, true, true})
		nbs := g.Neighbors(1)
		for _, nb := range nbs {
			Isend(c, make([]byte, volume/len(nbs)), nb, 1)
		}
		for _, nb := range nbs {
			Recv[byte](c, nb, 1)
		}
	}
	a2a := func(c *Comm) {
		parts := make([][]byte, p)
		for i := range parts {
			parts[i] = make([]byte, volume/(p-1))
		}
		Alltoall(c, parts)
	}
	swNb := Run(Config{Ranks: p}, neighbor).MaxClock()
	swA2A := Run(Config{Ranks: p}, a2a).MaxClock()
	toNb := Run(Config{Ranks: p, Model: netmodel.NewTorus(p)}, neighbor).MaxClock()
	toA2A := Run(Config{Ranks: p, Model: netmodel.NewTorus(p)}, a2a).MaxClock()
	// Relative advantage of neighbor exchange must be larger on the torus.
	if toNb/toA2A >= swNb/swA2A {
		t.Errorf("torus should favor neighbor exchange: torus ratio %g, switched ratio %g",
			toNb/toA2A, swNb/swA2A)
	}
}

func TestComputeScale(t *testing.T) {
	slow := Run(Config{Ranks: 1, ComputeScale: 2}, func(c *Comm) { c.Compute(1) })
	fast := Run(Config{Ranks: 1, ComputeScale: 0.5}, func(c *Comm) { c.Compute(1) })
	if slow.Clocks[0] != 2.0 || fast.Clocks[0] != 0.5 {
		t.Errorf("compute scale: slow %g fast %g", slow.Clocks[0], fast.Clocks[0])
	}
}

func TestPhases(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		c.Phase("work", func() { c.Compute(0.25) })
		c.Phase("work", func() { c.Compute(0.25) })
		c.Phase("idle", func() {})
	})
	if got := st.MaxPhase("work"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("work phase = %g, want 0.5", got)
	}
	if got := st.MaxPhase("idle"); got != 0 {
		t.Errorf("idle phase = %g, want 0", got)
	}
	names := st.PhaseNames()
	if len(names) != 2 || names[0] != "idle" || names[1] != "work" {
		t.Errorf("phase names = %v", names)
	}
}

func TestStatsCounters(t *testing.T) {
	st := run(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, make([]float64, 100), 1, 0)
		} else {
			Recv[float64](c, 0, 0)
		}
	})
	if st.BytesSent[0] != 800 {
		t.Errorf("rank 0 sent %d bytes, want 800", st.BytesSent[0])
	}
	if st.MessagesSent[0] != 1 || st.MessagesSent[1] != 0 {
		t.Errorf("message counters = %v", st.MessagesSent)
	}
	if st.TotalBytes() != 800 || st.TotalMessages() != 1 {
		t.Errorf("totals: %d bytes %d msgs", st.TotalBytes(), st.TotalMessages())
	}
}

func TestCartCoordsRoundTrip(t *testing.T) {
	run(t, 24, func(c *Comm) {
		g := CartCreate(c, []int{2, 3, 4}, []bool{true, false, true})
		for r := 0; r < 24; r++ {
			if got := g.RankOf(g.Coords(r)); got != r {
				t.Errorf("RankOf(Coords(%d)) = %d", r, got)
			}
		}
	})
}

func TestCartShift(t *testing.T) {
	run(t, 8, func(c *Comm) {
		g := CartCreate(c, []int{2, 4}, []bool{false, true})
		src, dst := g.Shift(1, 1) // periodic dim
		coords := g.Coords(c.Rank())
		wantDst := g.RankOf([]int{coords[0], coords[1] + 1})
		wantSrc := g.RankOf([]int{coords[0], coords[1] - 1})
		if src != wantSrc || dst != wantDst {
			t.Errorf("rank %d Shift(1,1) = (%d,%d), want (%d,%d)", c.Rank(), src, dst, wantSrc, wantDst)
		}
		// Non-periodic boundary yields -1.
		src0, _ := g.Shift(0, 1)
		if coords[0] == 0 && src0 != -1 {
			t.Errorf("rank %d: expected -1 source at non-periodic boundary, got %d", c.Rank(), src0)
		}
	})
}

func TestCartNeighborsCountPeriodic(t *testing.T) {
	run(t, 27, func(c *Comm) {
		g := CartCreate(c, []int{3, 3, 3}, []bool{true, true, true})
		nb := g.Neighbors(1)
		// On a fully periodic 3x3x3 grid every rank has 26 distinct neighbors.
		if len(nb) != 26 {
			t.Errorf("rank %d: %d neighbors, want 26", c.Rank(), len(nb))
		}
	})
}

func TestCartNeighborsNonPeriodicCorner(t *testing.T) {
	run(t, 8, func(c *Comm) {
		g := CartCreate(c, []int{2, 2, 2}, []bool{false, false, false})
		nb := g.Neighbors(1)
		// Every rank of a 2^3 open grid sees all 7 others.
		if len(nb) != 7 {
			t.Errorf("rank %d: %d neighbors, want 7", c.Rank(), len(nb))
		}
	})
}

func TestDimsCreate(t *testing.T) {
	for _, tc := range []struct {
		size, nd int
	}{
		{8, 3}, {12, 3}, {16, 3}, {64, 3}, {100, 3}, {7, 2}, {1, 3}, {256, 3},
	} {
		dims := DimsCreate(tc.size, tc.nd)
		p := 1
		for _, d := range dims {
			p *= d
		}
		if p != tc.size {
			t.Errorf("DimsCreate(%d,%d) = %v, product %d", tc.size, tc.nd, dims, p)
		}
		for i := 1; i < len(dims); i++ {
			if dims[i] > dims[i-1] {
				t.Errorf("DimsCreate(%d,%d) = %v not descending", tc.size, tc.nd, dims)
			}
		}
	}
	// Balance check for highly composite sizes.
	d := DimsCreate(64, 3)
	if d[0] != 4 || d[1] != 4 || d[2] != 4 {
		t.Errorf("DimsCreate(64,3) = %v, want [4 4 4]", d)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestWaitall(t *testing.T) {
	const p = 4
	run(t, p, func(c *Comm) {
		var reqs []*Request[int]
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				Isend(c, []int{c.Rank()}, r, 11)
				reqs = append(reqs, Irecv[int](c, r, 11))
			}
		}
		got := Waitall(reqs)
		if len(got) != p-1 {
			t.Errorf("Waitall returned %d results", len(got))
		}
		seen := map[int]bool{}
		for _, g := range got {
			seen[g[0]] = true
		}
		for r := 0; r < p; r++ {
			if r != c.Rank() && !seen[r] {
				t.Errorf("rank %d: missing message from %d", c.Rank(), r)
			}
		}
	})
}

func TestSendrecvReplace(t *testing.T) {
	const p = 3
	run(t, p, func(c *Comm) {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		got := SendrecvReplace(c, []int{c.Rank() * 2}, right, left, 4)
		if got[0] != left*2 {
			t.Errorf("rank %d: got %d, want %d", c.Rank(), got[0], left*2)
		}
	})
}

func TestNoFalseDeadlockWhenRanksFinish(t *testing.T) {
	// One rank finishes early while others communicate: no false positive.
	st := Run(Config{Ranks: 3}, func(c *Comm) {
		if c.Rank() == 2 {
			return // finishes immediately
		}
		if c.Rank() == 0 {
			Send(c, []int{1}, 1, 0)
			Recv[int](c, 1, 1)
		} else {
			Recv[int](c, 0, 0)
			Send(c, []int{2}, 0, 1)
		}
	})
	if st == nil {
		t.Fatal("run failed")
	}
}
