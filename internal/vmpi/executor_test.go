package vmpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Executor coverage: run-slot-count identity and edge cases. The executor's
// run-slot count changes only where and when rank host code executes;
// everything virtual — clocks, phases, traffic counters, traces — must be
// bit-identical to the fully serialized Workers: 1 run.

// mixedWorkload is a nontrivial program touching p2p, collectives,
// communicator splitting, phases, and compute.
func mixedWorkload(c *Comm) {
	me := c.Rank()
	p := c.Size()
	c.Phase("work", func() {
		c.Compute(float64(me+1) * 1e-6)
		// Ring sendrecv.
		got := Sendrecv(c, []int{me}, (me+1)%p, (me-1+p)%p, 7)
		if got[0] != (me-1+p)%p {
			panic("ring mismatch")
		}
		// Pairwise alltoall with skewed sizes.
		parts := make([][]float64, p)
		for dst := range parts {
			parts[dst] = make([]float64, (me*7+dst*3)%13)
		}
		recv := Alltoall(c, parts)
		ReleaseBlocks(recv)
		// Collectives.
		sum := AllreduceVal(c, int64(me), Sum[int64])
		c.Counter("sum", float64(sum))
		Barrier(c)
	})
	sub := c.Split(me%2, me)
	if sub != nil {
		v := AllreduceVal(sub, int64(1), Sum[int64])
		c.Gauge("subsize", float64(v))
	}
	c.SetResult(c.Time())
}

// TestWorkersVirtualEquivalence checks that every run-slot count — fixed
// at 2 or 8, or the default budget-drawn count (0) — produces Stats
// identical to the serialized Workers: 1 reference, including the traced
// event log, for plain and resized worlds.
func TestWorkersVirtualEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		body func(c *Comm)
	}{
		{"torus12_traced", Config{Ranks: 12, Model: netmodel.NewTorus(12), Trace: true}, mixedWorkload},
		{"switched8", Config{Ranks: 8}, mixedWorkload},
		{"resize_torus12_traced", Config{Ranks: 6, MaxRanks: 12, Model: netmodel.NewTorus(12), Trace: true},
			resizeBody([]int{3, 12, 5}, func(c *Comm, stage int, sum int64) {
				c.Counter("stage_sum", float64(sum))
			})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) *Stats {
				cfg := tc.cfg
				cfg.Workers = workers
				return Run(cfg, tc.body)
			}
			ref := run(1)
			if ref.Exec.Spawned != int64(len(ref.Clocks)) {
				t.Fatalf("spawned %d rank goroutines, want %d", ref.Exec.Spawned, len(ref.Clocks))
			}
			events := func(s *Stats) int {
				return len(s.Events.Filter(func(obs.Event) bool { return true }))
			}
			for _, w := range []int{2, 8, 0} {
				got := run(w)
				if !reflect.DeepEqual(got.Clocks, ref.Clocks) {
					t.Fatalf("workers=%d: clocks differ:\ngot: %v\nref: %v", w, got.Clocks, ref.Clocks)
				}
				if !reflect.DeepEqual(got.Admit, ref.Admit) || !reflect.DeepEqual(got.Retire, ref.Retire) {
					t.Fatalf("workers=%d: admit/retire times differ", w)
				}
				if !reflect.DeepEqual(got.Phases, ref.Phases) {
					t.Fatalf("workers=%d: phases differ", w)
				}
				if !reflect.DeepEqual(got.BytesSent, ref.BytesSent) || !reflect.DeepEqual(got.MessagesSent, ref.MessagesSent) {
					t.Fatalf("workers=%d: traffic counters differ", w)
				}
				if !reflect.DeepEqual(got.Values, ref.Values) {
					t.Fatalf("workers=%d: rank results differ: %v vs %v", w, got.Values, ref.Values)
				}
				if !reflect.DeepEqual(got.Trace, ref.Trace) {
					t.Fatalf("workers=%d: traces differ", w)
				}
				if events(got) != events(ref) {
					t.Fatalf("workers=%d: event counts differ: %d vs %d", w, events(got), events(ref))
				}
				if w > 0 && got.Exec.MaxSlots > w {
					t.Fatalf("workers=%d: MaxSlots %d exceeds the fixed bound", w, got.Exec.MaxSlots)
				}
			}
		})
	}
}

// onExecutor runs f as the subtest "event", named after the event-driven
// executor that runs every vmpi rank. Tests that once ran under each of
// two rank-execution engines keep their test ids through it.
func onExecutor(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run("event", f)
}

// TestSelfSendBothEngines checks a rank sending to itself: the delivery
// deposits a wake token on the running receiver itself.
func TestSelfSendBothEngines(t *testing.T) {
	onExecutor(t, func(t *testing.T) {
		st := Run(Config{Ranks: 3}, func(c *Comm) {
			me := c.Rank()
			Send(c, []int{me * 10}, me, 5)
			Send(c, []int{me*10 + 1}, me, 5)
			a := Recv[int](c, me, 5)
			b := Recv[int](c, me, 5)
			if a[0] != me*10 || b[0] != me*10+1 {
				panic(fmt.Sprintf("self-send order broken: %v %v", a, b))
			}
			c.SetResult(a[0] + b[0])
		})
		for r, v := range st.Values {
			if v.(int) != r*20+1 {
				t.Fatalf("rank %d result %v", r, v)
			}
		}
	})
}

// TestZeroByteBothEngines checks zero-length payloads flow, match, and cost
// only latency, identically at one and at the default run-slot count.
func TestZeroByteBothEngines(t *testing.T) {
	onExecutor(t, func(t *testing.T) {
		var clocks [][]float64
		for _, w := range []int{1, 0} {
			st := Run(Config{Ranks: 4, Workers: w}, func(c *Comm) {
				me := c.Rank()
				p := c.Size()
				// Empty payloads through p2p and a collective.
				got := Sendrecv(c, []byte{}, (me+1)%p, (me-1+p)%p, 3)
				if len(got) != 0 {
					panic("zero-byte payload grew")
				}
				empty := Alltoall(c, make([][]byte, p))
				for _, b := range empty {
					if len(b) != 0 {
						panic("zero-byte alltoall grew")
					}
				}
				Barrier(c)
			})
			if st.TotalBytes() != 0 {
				t.Fatalf("workers=%d: zero-byte run sent %d bytes", w, st.TotalBytes())
			}
			if st.MaxClock() <= 0 {
				t.Fatalf("workers=%d: zero-byte messages should still cost latency", w)
			}
			clocks = append(clocks, st.Clocks)
		}
		if !reflect.DeepEqual(clocks[0], clocks[1]) {
			t.Fatalf("zero-byte clocks differ across run-slot counts")
		}
	})
}

// TestDeadlockDump checks the executor panics — rather than hangs — with a
// per-rank blocked-state dump when the live ranks wait forever, and that
// ranks which returned normally neither mask the verdict nor appear in it.
func TestDeadlockDump(t *testing.T) {
	for _, tc := range []struct {
		name          string
		body          func(c *Comm)
		waiting, done []int
	}{
		{"all_blocked", func(c *Comm) {
			// Everyone receives from a rank that never sends.
			Recv[int](c, (c.Rank()+1)%c.Size(), 9)
		}, []int{0, 1, 2}, nil},
		{"after_finish", func(c *Comm) {
			if c.Rank() == 2 {
				return // finishes; ranks 0 and 1 wait forever
			}
			Recv[int](c, 2, 9)
		}, []int{0, 1}, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("expected deadlock panic")
				}
				msg, ok := p.(string)
				if !ok {
					t.Fatalf("deadlock panic is %T, want string", p)
				}
				if !strings.Contains(msg, "vmpi: deadlock: all ranks blocked in receive:") {
					t.Fatalf("unexpected deadlock message: %q", msg)
				}
				for _, r := range tc.waiting {
					if want := fmt.Sprintf("rank %d waiting for", r); !strings.Contains(msg, want) {
						t.Fatalf("dump misses %q: %q", want, msg)
					}
				}
				for _, r := range tc.done {
					if strings.Contains(msg, fmt.Sprintf("rank %d waiting for", r)) {
						t.Fatalf("finished rank %d listed in dump: %q", r, msg)
					}
				}
			}()
			Run(Config{Ranks: 3}, tc.body)
		})
	}
}

// TestEventEngineLargeP sanity-checks a paper-scale rank count: a 4096-rank
// neighbor exchange completes quickly with bounded resident goroutines.
func TestEventEngineLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("large-P smoke test")
	}
	const ranks = 4096
	st := Run(Config{Ranks: ranks, Workers: 2}, func(c *Comm) {
		me := c.Rank()
		p := c.Size()
		got := Sendrecv(c, []int{me}, (me+1)%p, (me-1+p)%p, 1)
		if got[0] != (me-1+p)%p {
			panic("ring mismatch")
		}
	})
	if st.Exec.Spawned != ranks {
		t.Fatalf("spawned %d, want %d", st.Exec.Spawned, ranks)
	}
	if st.Exec.PeakResident >= ranks {
		t.Fatalf("peak resident %d not bounded below rank count", st.Exec.PeakResident)
	}
}
