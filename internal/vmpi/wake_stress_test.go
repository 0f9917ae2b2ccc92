package vmpi

import (
	"reflect"
	"testing"
)

// Stress test for the event executor's batched wakeups. sendMsg does not
// wake a destination immediately: it queues the destination in the
// sender's pendingWakes and flushes on three edges — the batch filling up
// (wakeBatchMax), the sender entering a receive (it might park), and the
// sender's event body ending (it yields or finishes). A wakeup lost on any
// of those edges strands a parked rank: the run either reports a false
// deadlock (all-parked verdict) or hangs. The workload below drives all
// three flush edges at once, at slot counts from fully serialized to wider
// than the hot rank set, and the virtual clocks must still match the
// fully serialized Workers: 1 run exactly.
func TestBatchedWakeStress(t *testing.T) {
	// More destinations than wakeBatchMax so the hub's scatter crosses the
	// flush-on-full edge mid-loop.
	const ranks = wakeBatchMax + 32

	workload := func(c *Comm) {
		me, p := c.Rank(), c.Size()

		// Phase 1 — hub scatter/gather: rank 0 issues p-1 sends before its
		// first receive (batch fills and flushes mid-loop, the receive
		// flushes the remainder); every peer parks immediately and must be
		// woken by a batched flush. Replies are drained in reverse order so
		// the hub parks on the last-woken peers first.
		if me == 0 {
			for d := 1; d < p; d++ {
				SendVal(c, int64(d), d, 1)
			}
			for d := p - 1; d >= 1; d-- {
				if v := RecvVal[int64](c, d, 2); v != int64(2*d) {
					panic("hub reply mismatch")
				}
			}
		} else {
			v := RecvVal[int64](c, 0, 1)
			SendVal(c, 2*v, 0, 2)
		}

		// Phase 2 — power-of-two shifts: every rank sends one message and
		// parks in a receive with the wake for its destination still
		// batched, so delivery relies on the flush at recv entry.
		sum := int64(me)
		for off := 1; off < p; off *= 2 {
			dst := (me + off) % p
			src := (me - off + p) % p
			SendVal(c, sum, dst, 3)
			sum += RecvVal[int64](c, src, 3)
		}

		// Phase 3 — fire-and-finish: every peer sends its final token and
		// returns, exercising the end-of-body flush while rank 0 is parked
		// waiting for exactly those tokens.
		if me == 0 {
			total := sum
			for d := 1; d < p; d++ {
				total += RecvVal[int64](c, d, 4)
			}
			c.SetResult(total)
		} else {
			SendVal(c, sum, 0, 4)
		}
	}

	var ref *Stats // the Workers: 1 run
	for _, w := range []int{1, 2, 8} {
		st := Run(Config{Ranks: ranks, Workers: w}, workload)
		if ref == nil {
			ref = st
		}
		if !reflect.DeepEqual(st.Clocks, ref.Clocks) {
			t.Fatalf("workers=%d: clocks diverge from the Workers: 1 run", w)
		}
		if !reflect.DeepEqual(st.Values, ref.Values) {
			t.Fatalf("workers=%d: results diverge from the Workers: 1 run", w)
		}
		if st.Exec.MaxSlots > w {
			t.Fatalf("workers=%d: MaxSlots %d exceeds the fixed bound", w, st.Exec.MaxSlots)
		}
	}
}
