package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/paperbench"
	"repro/internal/psort"
	"repro/internal/redist"
	"repro/internal/vmpi"
)

// bigpSpec is a Figure 10 shape workload: every rank holds perRank uint64
// keys inside its own key range, each step 1 key in 8 drifts by less than
// half a range (so its owner changes by at most one rank), and the keys
// are redistributed with psort.SortMerge or with redist.ExchangeNeighborhood
// over the ±1 neighbours of a 1-D Cartesian topology.
type bigpSpec struct {
	ranks, perRank int
	machine        paperbench.Machine
	merge          bool
	steps          int
}

const (
	// rangeWidth is the key range each rank owns.
	rangeWidth = uint64(1) << 20
	// moveShare drifts 1 key in 2^moveShare per step.
	moveShare = 3
)

func (b bigpSpec) workload() workload {
	return workload{items: b.ranks * b.perRank, ranks: b.ranks, steps: b.steps, episode: b.episode}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genKeys draws every rank's initial keys from the seed: uniform inside
// the rank's own range, locally sorted.
func (b bigpSpec) genKeys(seed int64) [][]uint64 {
	keys := make([][]uint64, b.ranks)
	salt := splitmix64(uint64(seed))
	for r := range keys {
		k := make([]uint64, b.perRank)
		for i := range k {
			k[i] = uint64(r)*rangeWidth + splitmix64(salt^uint64(r*b.perRank+i))%rangeWidth
		}
		slices.Sort(k)
		keys[r] = k
	}
	return keys
}

// drift returns key k after step. The displacement depends only on the
// key, the step and the seed, never on which rank holds the key, so the
// multiset of keys evolves identically under any redistribution — the
// property the sequential oracle relies on.
func drift(k uint64, step int, salt, maxKey uint64) uint64 {
	h := splitmix64(k ^ salt ^ uint64(step+1)<<48)
	if h&(1<<moveShare-1) != 0 {
		return k
	}
	delta := int64((h >> 8) % (rangeWidth / 2))
	if h&(1<<moveShare) != 0 {
		delta = -delta
	}
	nk := min(max(int64(k)+delta, 0), int64(maxKey))
	return uint64(nk)
}

// bigpRank is one rank's contribution to a bigp episode.
type bigpRank struct {
	count   []int     // local keys after each step
	sum     []uint64  // Σ splitmix64(key) of local keys after each step
	vt      []float64 // virtual seconds of each redistribution
	ok      []bool    // local order/range check after each step
	final   []uint64
	nbrFall int
}

func (b bigpSpec) episode(o episodeOpts) episode {
	steps := b.steps
	if o.setupOnly {
		steps = 0
	}
	salt := splitmix64(uint64(o.seed) ^ 0x5eed)
	maxKey := uint64(b.ranks)*rangeWidth - 1
	return guard(steps, func(e *episode) {
		start := time.Now()
		gen := o.tr.now()
		keys := b.genKeys(o.seed)
		o.tr.host("setup.generate_s", gen)

		var setupEnd time.Time
		stepMS := make([]float64, steps)
		var memPeak, heapLive uint64
		runStart := o.tr.now()
		st := vmpi.Run(vmpi.Config{
			Ranks:        b.ranks,
			Model:        b.machine.Model(b.ranks),
			ComputeScale: b.machine.ComputeScale,
			Workers:      o.workers,
		}, func(c *vmpi.Comm) {
			r := c.Rank()
			t := o.tr.now()
			elems := slices.Clone(keys[r])
			t = o.tr.rank(r, "setup.distribute_s", t)
			var nbrs []int
			if !b.merge {
				nbrs = vmpi.CartCreate(c, []int{b.ranks}, []bool{false}).Neighbors(1)
			}
			vmpi.Barrier(c)
			o.tr.rank(r, "setup.init_s", t)
			if r == 0 {
				setupEnd = time.Now()
			}
			out := &bigpRank{
				count: make([]int, steps),
				sum:   make([]uint64, steps),
				vt:    make([]float64, steps),
				ok:    make([]bool, steps),
			}
			owner := redist.ToRank(func(i int) int { return int(elems[i] / rangeWidth) })
			for k := 0; k < steps; k++ {
				t0 := time.Now()
				for i, key := range elems {
					elems[i] = drift(key, k, salt, maxKey)
				}
				v0 := c.Time()
				ts := o.tr.now()
				if b.merge {
					elems = psort.SortMerge(c, elems, func(k uint64) uint64 { return k })
					o.tr.rank(r, "psort.sort_merge_s", ts)
				} else {
					var used bool
					elems, used = redist.ExchangeNeighborhood(c, elems, owner, nbrs)
					if !used {
						out.nbrFall++
					}
					o.tr.rank(r, "redist.exchange_nbr_s", ts)
				}
				out.vt[k] = c.Time() - v0
				if r == 0 {
					stepMS[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
					mem, live := sampleMemory()
					memPeak, heapLive = max(memPeak, mem), max(heapLive, live)
				}
				if o.fault && r == 0 && k == 0 && len(elems) > 0 {
					elems = elems[1:]
				}
				out.count[k] = len(elems)
				out.ok[k] = true
				for i, key := range elems {
					out.sum[k] += splitmix64(key)
					if b.merge && i > 0 && key < elems[i-1] {
						out.ok[k] = false
					}
					if !b.merge && key/rangeWidth != uint64(r) {
						out.ok[k] = false
					}
				}
			}
			out.final = elems
			c.SetResult(out)
		})
		o.tr.host("vmpi.run_s", runStart)
		e.setup = setupEnd.Sub(start).Seconds()
		e.stepMS = stepMS
		e.stats = st
		e.memPeak, e.heapLiveMax = memPeak, heapLive
		e.vstep = make([]float64, steps)
		e.phases = map[string]float64{}
		ranks := make([]*bigpRank, len(st.Values))
		for i, v := range st.Values {
			ranks[i] = v.(*bigpRank)
			e.nbrFallbacks += ranks[i].nbrFall
			for k, vt := range ranks[i].vt {
				e.vstep[k] = math.Max(e.vstep[k], vt)
			}
		}
		// The redistribution is the whole step's communication: report it
		// as the sort phase, like Figure 10.
		e.phases["sort"] = mean(e.vstep)
		e.phases["total"] = e.phases["sort"]
		b.check(e, keys, ranks, salt, maxKey)
	})
}

// check compares the episode with a sequential oracle: the same drift
// applied to the initial multiset step by step gives each step's key count
// and key-hash sum; the final multiset, sorted and split by owner range
// (neighborhood) or by the preserved per-rank counts (merge sort), gives
// every rank's final keys.
func (b bigpSpec) check(e *episode, initial [][]uint64, ranks []*bigpRank, salt, maxKey uint64) {
	all := slices.Concat(initial...)
	for k := 0; k < b.steps; k++ {
		var want uint64
		for i, key := range all {
			all[i] = drift(key, k, salt, maxKey)
			want += splitmix64(all[i])
		}
		count, sum := 0, uint64(0)
		for r, rr := range ranks {
			count += rr.count[k]
			sum += rr.sum[k]
			if !rr.ok[k] {
				e.failStep(k, "rank %d keys out of order or outside its range", r)
			}
		}
		if count != len(all) || sum != want {
			e.failStep(k, "%d keys with hash sum %x, want %d with %x", count, sum, len(all), want)
		}
	}
	slices.Sort(all)
	h := sha256.New()
	var buf [8]byte
	lo := 0
	for r, rr := range ranks {
		var want []uint64
		if b.merge {
			want = all[lo:min(lo+len(initial[r]), len(all))]
		} else {
			hi := lo
			for hi < len(all) && all[hi]/rangeWidth == uint64(r) {
				hi++
			}
			want = all[lo:hi]
		}
		lo += len(want)
		got := rr.final
		if !b.merge {
			got = slices.Clone(got)
			slices.Sort(got)
		}
		if !slices.Equal(got, want) {
			e.failStep(b.steps-1, "rank %d final keys differ from the sequential oracle", r)
		}
		for _, key := range rr.final {
			binary.LittleEndian.PutUint64(buf[:], key)
			h.Write(buf[:])
		}
	}
	if e.nbrFallbacks > 0 {
		e.failAll("%d neighborhood exchanges fell back to the collective", e.nbrFallbacks)
	}
	e.digest = fmt.Sprintf("%x", h.Sum(nil))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
