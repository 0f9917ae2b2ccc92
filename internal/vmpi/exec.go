package vmpi

import (
	"repro/internal/hostpar"
	"repro/internal/rankexec"
)

// Event-driven rank execution.
//
// A rank's body is arbitrary Go code, so a goroutine is the only resumable
// stack available — but handing every rank to the Go scheduler at once (P
// goroutines, each with a stack, all runnable whenever their mailbox has
// data) is hopeless at the paper's 16384 processes. Runnability therefore
// lives under an explicit executor (internal/rankexec): a rank is parked
// when its receive finds no matching message and re-enqueued when a
// delivery arrives, and runnable ranks are multiplexed over a bounded set
// of run slots — one base slot plus extras try-acquired from the
// process-wide hostpar budget, the same pool the experiment scheduler and
// hostpar's tile helpers draw from. Rank goroutines are spawned lazily on
// first dispatch, so peak resident stacks track the slot bound, not P.
//
// Virtual time is a pure function of the program's communication structure
// and charged compute: receives match exactly on (src, tag, ctx), so
// parking a rank changes when its host code runs, never what it computes.
// The worker-count identity tests in paperbench (figures, Chrome trace,
// Prometheus export compared across run-slot counts) enforce this end to
// end.

// ExecStats meters the executor's host-side behaviour for one Run.
// These are host-domain quantities — they depend on scheduling and never
// enter the virtual event stream or the golden exports.
type ExecStats struct {
	// Parks counts blocking receive waits (a receive that found its
	// message queued parks zero times).
	Parks int64
	// Wakeups counts deliveries that woke (or pre-empted the park of) a
	// waiting rank.
	Wakeups int64
	// Spawned counts rank goroutines actually created (== ranks, unless
	// the run aborted before every rank was first dispatched).
	Spawned int64
	// MaxRunnable is the high-water mark of the runnable-rank queue.
	MaxRunnable int
	// PeakResident is the high-water mark of live rank goroutines — the
	// executor's host-memory footprint driver at large P.
	PeakResident int
	// MaxSlots is the high-water mark of concurrently held run slots
	// (base + budget extras).
	MaxSlots int
}

// wakeBatchMax caps a rank's pending-wake batch: a fan-out send loop
// flushes to the executor every wakeBatchMax deliveries instead of growing
// the batch without bound.
const wakeBatchMax = 64

// flushWakes delivers a rank's batched wakeups to the executor in one
// UnparkBatch episode. Callers invoke it before the rank can block
// (recvRaw) or finish (runEvent's body), so a delivered message's receiver
// is always runnable by the time the sender parks — the all-parked
// deadlock verdict stays exact.
func (rt *Runtime) flushWakes(st *rankState) {
	if len(st.pendingWakes) == 0 {
		return
	}
	rt.exec.UnparkBatch(st.pendingWakes)
	st.pendingWakes = st.pendingWakes[:0]
}

// runEvent executes the ranks under the event-driven executor. The first
// rank panic (including the deadlock verdict) is re-raised in the caller's
// goroutine. Task ids are instance ids: ranks admitted by a Resize join the
// executor as new tasks (Admit) without disturbing the all-parked deadlock
// verdict, and retired ranks simply finish.
func runEvent(rt *Runtime, cfg Config, n int) {
	panicCh := make(chan any, 1)
	body := func(r int) {
		defer func() {
			if p := recover(); p != nil {
				// Stop dispatching and return budget extras before the
				// caller unwinds; parked sibling ranks stay parked.
				rt.exec.Abort()
				select {
				case panicCh <- p:
				default:
				}
			}
		}()
		c := rt.instComm(r)
		rt.f(c)
		// Wakes batched after the rank's last receive must reach the
		// executor before this task finishes, or receivers of its final
		// sends would park forever.
		rt.flushWakes(c.st)
	}
	opts := rankexec.Options{
		OnDeadlock: func([]int) { panic(rt.deadlockDump()) },
	}
	if cfg.Workers > 0 {
		// Fixed slot count, no budget: deterministic host concurrency for
		// tests and benchmarks.
		opts.Workers = cfg.Workers
	} else {
		// One guaranteed slot (progress must never depend on the budget)
		// plus extras up to the host's capacity.
		b := hostpar.SharedBudget()
		opts.Workers = 1
		opts.Budget = b
		opts.MaxWorkers = b.Capacity()
	}
	ex := rankexec.New(n, body, opts)
	rt.exec = ex
	ex.Start()
	done := make(chan struct{})
	go func() {
		ex.Wait()
		close(done)
	}()
	select {
	case <-done:
		// A deadlock verdict lets every poisoned rank finish after its
		// recover, so Wait can return with a panic pending — check.
		select {
		case p := <-panicCh:
			panic(p)
		default:
		}
	case p := <-panicCh:
		panic(p)
	}
	rt.execStats = execStatsFrom(ex.Snapshot())
}

func execStatsFrom(s rankexec.Stats) *ExecStats {
	return &ExecStats{
		Parks:        s.Parks,
		Wakeups:      s.Wakeups,
		Spawned:      s.Spawned,
		MaxRunnable:  s.MaxRunnable,
		PeakResident: s.PeakResident,
		MaxSlots:     s.MaxSlots,
	}
}

// noteWaiting records what a rank is about to park for, feeding the
// deadlock verdict's per-rank blocked-state dump. Three stored words per
// park — formatting waits for the (rare) verdict, so the park hot path
// does not allocate.
func (rt *Runtime) noteWaiting(rank, src, tag int) {
	d := &rt.deadlock
	d.mu.Lock()
	d.waitingOn[rank] = waitRec{src: src, tag: tag, active: true}
	d.mu.Unlock()
}

// clearWaiting erases a rank's wait record after it resumed.
func (rt *Runtime) clearWaiting(rank int) {
	d := &rt.deadlock
	d.mu.Lock()
	d.waitingOn[rank] = waitRec{}
	d.mu.Unlock()
}

// deadlockDump renders the all-parked verdict from the ranks' wait records.
func (rt *Runtime) deadlockDump() string {
	d := &rt.deadlock
	d.mu.Lock()
	defer d.mu.Unlock()
	return formatWaitSet(d.waitingOn)
}
