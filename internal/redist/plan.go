package redist

import (
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/costs"
	"repro/internal/vmpi"
)

// Memory-bounded redistribution planning (ROADMAP item 3).
//
// Every redistribution in this package — the collective all-to-all
// Exchange, the neighborhood exchange, the block remap, and the resort of
// method B — used to materialize one send buffer per destination rank
// simultaneously, so the per-rank peak exchange footprint was the entire
// outgoing volume. Following Rink et al. (*Memory-efficient array
// redistribution through portable collective communication*, PAPERS.md),
// a Plan decomposes the same exchange into a deterministic schedule of
// bounded-footprint rounds: destinations are packed greedily, in staging
// order, into rounds whose worst-case staged bytes (a collective maximum,
// so every rank derives the same schedule) stay within the byte budget,
// and each round builds and relinquishes its buffers via vmpi.SendOwned
// before the next round stages anything. Because vmpi sends are eager and
// never block, all rounds complete before any receive, and the receives
// then assemble blocks in canonical source order — so the result is
// byte-identical to the unbounded path, round structure notwithstanding.
//
// The budget bounds what a rank *stages* for sending at any moment; the
// inbound side (the elements a rank ends up owning) is the irreducible
// output and is not charged against it. A single destination whose block
// alone exceeds the budget still gets a round of its own — the schedule
// degrades to per-destination rounds, never deadlocks.
//
// With a zero budget a Plan replays the historical code paths verbatim —
// same messages, same collectives, same floating-point cost accumulation
// order — which is what keeps the golden figures byte-identical.

// tagPlan carries the bounded-round point-to-point messages. Reserved
// alongside the neighborhood tag 201 and the resort tags 211/212.
const tagPlan = 221

// MeterPeakBytes names the obs gauge (per-exchange staged peak) and
// counter (sum of staged peaks over all metered exchanges on a rank) that
// Execute emits when a budget is active or Options.Meter is set. The
// value is a pure function of the routing, so it is deterministic across
// run-slot counts and host parallelism — but budgetless, unmetered configs (all
// golden figures) emit no meter events at all, keeping their event
// streams unchanged.
const MeterPeakBytes = "redist/peak_bytes"

// Options configures a Plan.
type Options struct {
	// MaxBytes is the staging budget per round. 0 adopts the
	// communicator's configured vmpi MaxExchangeBytes (itself 0 =
	// unbounded by default); a negative value forces the unbounded path
	// regardless of the communicator setting.
	MaxBytes int64
	// Neighbors, when non-nil, requests the point-to-point neighborhood
	// backend over this symmetric neighbor set (see
	// ExchangeNeighborhood). Feasibility is decided collectively in
	// NewPlan; if any rank routes outside its neighborhood every rank
	// falls back to the all-to-all backend.
	Neighbors []int
	// Meter forces emission of the MeterPeakBytes gauge/counter even on
	// the unbounded path (budgeted plans always meter). Off by default so
	// budgetless runs add zero events.
	Meter bool
}

// Plan is the routing of one redistribution: which destination every
// element occurrence goes to, which backend executes it, and — when a
// budget is active — the collective round schedule that bounds staging.
// Build one with NewPlan, run it with Execute (a package function,
// because Go methods cannot be generic: Execute[T](plan, items)). A Plan
// may be executed multiple times over same-shaped inputs.
type Plan struct {
	c      *vmpi.Comm
	n      int   // local element count the routing was built for
	budget int64 // 0 = unbounded
	meter  bool

	// Destination routing in CSR form, indexed by staging-order slot
	// (position in order): counts[k] occurrences for rank order[k], their
	// source element indices at occIdx[occOff[k]:occOff[k+1]], in local
	// element order. The all-to-all backend's order is the identity, so
	// slot == rank there; the neighborhood backend's CSR spans only
	// self + neighbors, keeping a live plan O(|neighbors|), not O(P) — at
	// 16384 ranks the per-rank dense arrays dominated host memory, since
	// every rank parked mid-exchange holds its plan. Slices, not maps —
	// this package is in the determinism analyzer's hot set.
	counts []int
	occOff []int
	occIdx []int32

	neighbors []int
	useNbr    bool  // neighborhood requested and collectively feasible
	order     []int // destinations in staging order (self first for useNbr)

	// maxCounts[d] = max over ranks of counts[d]; the collective input to
	// the round schedule. Present only when budget > 0.
	maxCounts []int64

	peak int64 // staged-bytes peak of the most recent Execute
}

// planPool recycles Plan structs together with their O(P) routing arrays
// (counts, occOff, occIdx, order, maxCounts). At large P the per-step
// planner arrays dominated host allocation — every neighborhood-exchange
// step built and dropped four size-P slices per rank. NewPlan fully
// re-initializes every field it uses, so recycling is invisible to the
// routing and the schedule.
var planPool = sync.Pool{New: func() any { return new(Plan) }}

// buildScratch holds NewPlan's function-local working arrays, pooled for
// the same reason as the Plan arrays.
type buildScratch struct {
	cursor []int
	occDst []int32
	occSrc []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow returns s resliced to length n, reallocating only when the capacity
// is short. Contents are unspecified — callers overwrite or clear.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Free returns the plan and its routing arrays to the package pool. The
// plan must not be used after Free. Freeing is optional — an unfreed Plan
// is simply garbage-collected — but the convenience wrappers (Exchange,
// ExchangeNeighborhood, RemapBlocks, the resorts) free theirs once
// executed, which keeps the O(P) planner arrays off the allocator's hot
// path at large rank counts.
func (p *Plan) Free() {
	p.c = nil
	p.neighbors = nil // caller-owned; a pooled plan must not pin it
	planPool.Put(p)
}

// NewPlan routes n local elements through targets and returns the plan.
// Collective when opts.Neighbors is non-nil (the feasibility vote) or a
// budget is active (the schedule maximum); otherwise it communicates
// nothing. targets is invoked exactly once per element, in order.
func NewPlan(c *vmpi.Comm, n int, targets Targets, opts Options) *Plan {
	p := c.Size()
	self := c.Rank()
	pl := planPool.Get().(*Plan)
	pl.c, pl.n, pl.budget, pl.meter = c, n, 0, opts.Meter
	pl.neighbors, pl.useNbr, pl.peak = nil, false, 0
	if opts.Neighbors != nil {
		pl.neighbors = opts.Neighbors
		for _, r := range opts.Neighbors {
			if r < 0 || r >= p {
				panic(fmt.Sprintf("redist: neighbor rank %d out of range (size %d)", r, p))
			}
		}
	}

	// Pass 1: flatten the target lists — one (element, destination) pair
	// per occurrence, in emission order. When a neighborhood is requested,
	// membership is a scan of the (short) neighbor list, not an O(P)
	// lookup table.
	sc := buildPool.Get().(*buildScratch)
	occDst := sc.occDst[:0]
	occSrc := sc.occSrc[:0]
	ok := true
	var buf []int
	for i := 0; i < n; i++ {
		buf = targets(i, buf[:0])
		for _, r := range buf {
			if r < 0 || r >= p {
				panic(fmt.Sprintf("redist: target rank %d out of range (size %d)", r, p))
			}
			if opts.Neighbors != nil && r != self && !rankIn(opts.Neighbors, r) {
				ok = false
			}
			occDst = append(occDst, int32(r))
			occSrc = append(occSrc, int32(i))
		}
	}
	sc.occDst, sc.occSrc = occDst, occSrc

	// Resolve the budget: explicit option, else the communicator default.
	switch {
	case opts.MaxBytes > 0:
		pl.budget = opts.MaxBytes
	case opts.MaxBytes == 0:
		pl.budget = c.MaxExchangeBytes()
	default:
		pl.budget = 0
	}

	// Collective fallback decision for the neighborhood backend: every
	// rank must take the same path. Same vote, in the same sequence
	// position, as the historical ExchangeNeighborhood.
	if opts.Neighbors != nil {
		pl.useNbr = vmpi.AllreduceVal(c, boolToInt(ok), vmpi.Min[int]) == 1
	}

	// Staging order: the all-to-all backend stages destinations in rank
	// order; the neighborhood backend stages self first, then the
	// neighbor list order (matching its assembly order).
	if pl.useNbr {
		pl.order = append(pl.order[:0], self)
		pl.order = append(pl.order, pl.neighbors...)
	} else {
		pl.order = grow(pl.order, p)
		for d := range pl.order {
			pl.order[d] = d
		}
	}

	// Pass 2: bucket occurrences by staging-order slot. The counting sort
	// is stable, so each destination sees its elements in local order —
	// exactly the order the per-destination append loops used to build.
	// The feasible neighborhood order spans self + neighbors only, so the
	// CSR of a live plan is O(|neighbors|) — not O(P).
	nslots := len(pl.order)
	pl.counts = grow(pl.counts, nslots)
	clear(pl.counts)
	for _, r := range occDst {
		pl.counts[pl.slotOf(int(r))]++
	}
	pl.occOff = grow(pl.occOff, nslots+1)
	pl.occOff[0] = 0
	for k := 0; k < nslots; k++ {
		pl.occOff[k+1] = pl.occOff[k] + pl.counts[k]
	}
	pl.occIdx = grow(pl.occIdx, len(occDst))
	cursor := grow(sc.cursor, nslots)
	sc.cursor = cursor
	copy(cursor, pl.occOff[:nslots])
	for j, r := range occDst {
		k := pl.slotOf(int(r))
		pl.occIdx[cursor[k]] = occSrc[j]
		cursor[k]++
	}
	buildPool.Put(sc)

	// The round schedule needs the cross-rank maximum of every
	// destination's count so all ranks cut rounds identically. Collective
	// — and therefore only performed when a budget is active, keeping the
	// budgetless event stream unchanged. Rank-indexed and dense: the
	// Allreduce payload must stay wire-identical to the historical one.
	if pl.budget > 0 {
		counts64 := grow(pl.maxCounts, p)
		clear(counts64)
		for k, n := range pl.counts {
			counts64[pl.order[k]] = int64(n)
		}
		mc := vmpi.Allreduce(c, counts64, vmpi.Max[int64])
		copy(counts64, mc)
		pl.maxCounts = counts64
		vmpi.Release(mc)
	}
	return pl
}

// slotOf maps a destination rank to its staging-order slot. The all-to-all
// order is the identity; the short neighborhood order is scanned. A rank
// outside a feasible neighborhood cannot reach here: the collective vote
// has already forced the all-to-all path for that routing.
func (p *Plan) slotOf(r int) int {
	if !p.useNbr {
		return r
	}
	for k, d := range p.order {
		if d == r {
			return k
		}
	}
	panic(fmt.Sprintf("redist: rank %d not in the feasible neighborhood order", r))
}

// rankIn reports whether r appears in the (short, duplicate-free) rank
// list.
func rankIn(list []int, r int) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}

// Bounded reports whether the plan executes the bounded-round protocol.
func (p *Plan) Bounded() bool { return p.budget > 0 }

// Budget returns the resolved staging budget in bytes (0 = unbounded).
func (p *Plan) Budget() int64 { return p.budget }

// UsedNeighborhood reports whether the neighborhood backend was feasible
// and will be (or was) used; false means the all-to-all backend, either
// because no neighbor set was given or because the collective vote fell
// back.
func (p *Plan) UsedNeighborhood() bool { return p.useNbr }

// PeakBytes returns the staged-bytes peak of the most recent Execute on
// this plan (the same value the MeterPeakBytes gauge reports), or 0 if
// the plan has not executed.
func (p *Plan) PeakBytes() int64 { return p.peak }

// Rounds returns the number of staging rounds Execute will use for
// elements of the given byte size: 1 when unbounded, otherwise the length
// of the greedy schedule.
func (p *Plan) Rounds(elemBytes int) int {
	if p.budget <= 0 {
		return 1
	}
	return len(scheduleRounds(p.order, p.maxCounts, elemBytes, p.budget))
}

// scheduleRounds packs consecutive positions of order into rounds whose
// collective worst-case staging (maxCounts per destination, times
// elemBytes) stays within budget. Greedy and deterministic; a destination
// whose block alone exceeds the budget gets a singleton round. Returns
// half-open [lo, hi) position ranges covering all of order.
func scheduleRounds(order []int, maxCounts []int64, elemBytes int, budget int64) [][2]int {
	rounds := make([][2]int, 0, 1)
	lo := 0
	acc := int64(0)
	for k := range order {
		b := maxCounts[order[k]] * int64(elemBytes)
		if k > lo && acc+b > budget {
			rounds = append(rounds, [2]int{lo, k})
			lo, acc = k, 0
		}
		acc += b
	}
	return append(rounds, [2]int{lo, len(order)})
}

// gather builds the freshly allocated per-destination send buffer for
// staging-order slot k (rank p.order[k]): the plan's occurrences for that
// rank, in local element order. Returns nil when the rank receives
// nothing (matching the historical append-built nil parts, which the
// messaging layer and its debug ownership checker rely on).
func gather[T any](p *Plan, items []T, k int) []T {
	lo, hi := p.occOff[k], p.occOff[k+1]
	if lo == hi {
		return nil
	}
	buf := make([]T, 0, hi-lo)
	for _, i := range p.occIdx[lo:hi] {
		buf = append(buf, items[i])
	}
	return buf
}

// crossCostCounts is crossCost over the plan's destination counts: the
// same per-rank terms, accumulated in the same rank order, so the float64
// sum is bit-identical to charging the materialized parts.
func crossCostCounts(self int, counts []int) float64 {
	cost := 0.0
	for r, n := range counts {
		if r == self {
			cost += costs.Move * float64(n)
		} else {
			cost += costs.RedistElem * float64(n)
		}
	}
	return cost
}

// meterPeak records the staged peak on the plan and, when metering is
// active, emits the gauge and counter.
func meterPeak(p *Plan, peak int64) {
	p.peak = peak
	if p.budget > 0 || p.meter {
		p.c.Gauge(MeterPeakBytes, float64(peak))
		p.c.Counter(MeterPeakBytes, float64(peak))
	}
}

// Execute runs the plan over items (which must have the length the plan
// was routed for) and returns, for each source rank in canonical order —
// rank order for the all-to-all backend, self first then neighbor order
// for the neighborhood backend — that rank's elements in their local
// order. The result is byte-identical across budgets, backends, and
// run-slot counts.
//
// Spelled as a package function because Go methods cannot be generic;
// read it as plan.Execute[T].
func Execute[T any](p *Plan, items []T) []T {
	if len(items) != p.n {
		panic(fmt.Sprintf("redist: plan routed %d elements, Execute got %d", p.n, len(items)))
	}
	if p.budget > 0 {
		return executeBounded(p, items)
	}
	if p.useNbr {
		return executeNeighborhood(p, items)
	}
	return executeAlltoall(p, items)
}

// executeAlltoall is the historical Exchange body: stage every
// destination at once, one collective all-to-all, concatenate by source
// rank. Message sizes, ownership transfers, and the two Compute charges
// replay the pre-plan code exactly.
func executeAlltoall[T any](p *Plan, items []T) []T {
	c := p.c
	size := c.Size()
	parts := make([][]T, size)
	staged := int64(0)
	for d := 0; d < size; d++ {
		parts[d] = gather(p, items, d)
		staged += int64(len(parts[d]))
	}
	c.Compute(crossCostCounts(c.Rank(), p.counts))
	// The parts are freshly built per-destination buffers, so they are
	// relinquished into the messages without a copy; the received blocks
	// are recycled once concatenated.
	recv := vmpi.AlltoallOwned(c, parts)
	out := make([]T, 0, totalLen(recv))
	for _, b := range recv {
		out = append(out, b...)
	}
	c.Compute(crossCost(c.Rank(), recv))
	vmpi.ReleaseBlocks(recv)
	meterPeak(p, staged*int64(unsafe.Sizeof(*new(T))))
	return out
}

// executeNeighborhood is the historical ExchangeNeighborhood body (the
// feasible branch): eager point-to-point sends on tag 201, assembly self
// first then neighbors in order.
func executeNeighborhood[T any](p *Plan, items []T) []T {
	c := p.c
	// Slot 0 of the staging order is self; neighbor k sits at slot k+1.
	sendCost := costs.Move * float64(p.counts[0])
	for k := range p.neighbors {
		sendCost += costs.RedistElem * float64(p.counts[k+1])
	}
	c.Compute(sendCost)
	const tag = 201
	staged := int64(p.counts[0])
	selfPart := gather(p, items, 0)
	for k, nb := range p.neighbors {
		// Freshly built per-neighbor buffers: relinquish them, no copy.
		part := gather(p, items, k+1)
		staged += int64(len(part))
		vmpi.SendOwned(c, part, nb, tag)
	}
	// Deterministic assembly order: self first, then neighbors in order.
	out := make([]T, 0, len(items))
	out = append(out, selfPart...)
	recvCost := costs.Move * float64(len(selfPart))
	for _, nb := range p.neighbors {
		got := vmpi.Recv[T](c, nb, tag)
		recvCost += costs.RedistElem * float64(len(got))
		out = append(out, got...)
		vmpi.Release(got)
	}
	c.Compute(recvCost)
	meterPeak(p, staged*int64(unsafe.Sizeof(*new(T))))
	return out
}

// executeBounded runs the round protocol: per round, build and relinquish
// the round's destination buffers (one eager message per destination on
// tagPlan, the self block kept aside), then — after all rounds — receive
// one block from every source and assemble in canonical source order.
// Sends are eager and never block, so the send rounds always complete;
// the staged peak is the largest single round.
func executeBounded[T any](p *Plan, items []T) []T {
	c := p.c
	self := c.Rank()
	elem := int(unsafe.Sizeof(*new(T)))

	// Charge the same send-side cost as the unbounded backend would.
	if p.useNbr {
		sendCost := costs.Move * float64(p.counts[0])
		for k := range p.neighbors {
			sendCost += costs.RedistElem * float64(p.counts[k+1])
		}
		c.Compute(sendCost)
	} else {
		c.Compute(crossCostCounts(self, p.counts))
	}

	var selfBlock []T
	peak := int64(0)
	for _, g := range scheduleRounds(p.order, p.maxCounts, elem, p.budget) {
		staged := int64(0)
		for k := g[0]; k < g[1]; k++ {
			d := p.order[k]
			if d == self {
				selfBlock = gather(p, items, k)
				staged += int64(len(selfBlock)) * int64(elem)
				continue
			}
			buf := gather(p, items, k)
			staged += int64(len(buf)) * int64(elem)
			vmpi.SendOwned(c, buf, d, tagPlan)
		}
		if staged > peak {
			peak = staged
		}
	}

	// Receive and assemble in the backend's canonical source order; the
	// per-pair messages arrive in send order, so the concatenation is
	// byte-identical to the unbounded result.
	out := make([]T, 0, len(selfBlock))
	if p.useNbr {
		out = make([]T, 0, len(items))
	}
	recvCost := 0.0
	for _, src := range p.order {
		if src == self {
			recvCost += costs.Move * float64(len(selfBlock))
			out = append(out, selfBlock...)
			continue
		}
		got := vmpi.Recv[T](c, src, tagPlan)
		recvCost += costs.RedistElem * float64(len(got))
		out = append(out, got...)
		vmpi.Release(got)
	}
	c.Compute(recvCost)
	meterPeak(p, peak)
	return out
}

// ExchangeBlocks exchanges pre-built per-destination parts (one slice per
// rank of the communicator, subslices of shared arrays allowed): the
// plan-backed replacement for vmpi.Alltoall used by the sort strategies.
// With no budget configured on the communicator it defers to the copying
// collective verbatim; under a budget it runs the bounded round protocol
// with copying sends, metering staged peak bytes. The result — block from
// every source rank, in rank order — is byte-identical either way.
func ExchangeBlocks[T any](c *vmpi.Comm, parts [][]T) [][]T {
	size := c.Size()
	if len(parts) != size {
		panic(fmt.Sprintf("redist: ExchangeBlocks got %d parts on a size-%d communicator", len(parts), size))
	}
	budget := c.MaxExchangeBytes()
	if budget <= 0 {
		return vmpi.Alltoall(c, parts)
	}
	elem := int(unsafe.Sizeof(*new(T)))
	self := c.Rank()

	counts64 := make([]int64, size)
	order := make([]int, size)
	for d := range parts {
		counts64[d] = int64(len(parts[d]))
		order[d] = d
	}
	mc := vmpi.Allreduce(c, counts64, vmpi.Max[int64])
	maxCounts := append([]int64(nil), mc...)
	vmpi.Release(mc)

	recv := make([][]T, size)
	peak := int64(0)
	for _, g := range scheduleRounds(order, maxCounts, elem, budget) {
		staged := int64(0)
		for d := g[0]; d < g[1]; d++ {
			staged += int64(len(parts[d])) * int64(elem)
			if d == self {
				// Copy, as the collective would: the caller keeps parts.
				// Non-nil even when empty, matching the pooled copy the
				// unbounded collective hands back.
				recv[d] = append(make([]T, 0, len(parts[d])), parts[d]...)
				continue
			}
			vmpi.Send(c, parts[d], d, tagPlan)
		}
		if staged > peak {
			peak = staged
		}
	}
	for src := 0; src < size; src++ {
		if src == self {
			continue
		}
		recv[src] = vmpi.Recv[T](c, src, tagPlan)
	}
	c.Gauge(MeterPeakBytes, float64(peak))
	c.Counter(MeterPeakBytes, float64(peak))
	return recv
}
