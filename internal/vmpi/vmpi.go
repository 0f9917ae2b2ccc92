// Package vmpi implements a virtual MPI: a deterministic, in-process
// message-passing runtime that stands in for MPI on a distributed-memory
// cluster.
//
// The paper's algorithms (parallel sorting, fine-grained particle
// redistribution, all-to-all vs. neighborhood exchange) are defined by which
// messages of which sizes flow between which ranks. vmpi executes the real
// data movement — every rank is a resumable task with private memory, spawned
// lazily on the event-driven executor (internal/rankexec, see exec.go), and
// message payloads are deep-copied between ranks — while charging
// communication and computation to per-rank virtual clocks:
//
//   - A send occupies the sender's port for an injection time given by the
//     network model and puts the message in flight; it arrives at
//     sendStart + Model.Cost(src, dst, bytes).
//   - A receive completes at max(receiver clock, arrival time), so causality
//     and load imbalance propagate exactly as on a real machine.
//   - Computation is charged explicitly via Comm.Compute.
//
// Collectives are implemented on top of point-to-point messages using
// standard algorithms (binomial trees, ring allgather, pairwise all-to-all,
// dissemination barrier), so their virtual cost emerges from the network
// topology model rather than being postulated. On a switched model,
// neighborhood exchanges gain nothing; on a torus model they do — matching
// the paper's JuRoPA vs. Juqueen observations.
//
// The world is elastic: Resize grows or shrinks the set of live ranks
// mid-run (see resize.go). Each resize starts a new epoch — a fresh world
// membership with its own communicator context — while rank identities
// (instances) stay stable, so observability streams and final statistics
// cover every rank that ever lived.
//
// Virtual time is deterministic: it depends only on the program's
// communication structure and charged computation, never on host scheduling.
package vmpi

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/rankexec"
)

// Fixed per-message CPU overheads in seconds (the "o" of the LogP family).
const (
	sendOverhead = 0.3e-6
	recvOverhead = 0.3e-6
)

// message is a unit of point-to-point communication between world ranks.
// Small flat payloads travel inline in the envelope (see msg.go): inlElems
// is the element count and the data lives in inl, so neither sender nor
// receiver allocates a payload buffer. Envelopes themselves are recycled
// through msgPool; inlElems == -1 marks a payload-carrying message.
type message struct {
	src    int // sender's rank within the communicator's context
	tag    int
	ctx    int64 // communicator context id
	arrive float64
	bytes  int
	// pptr/plen/pcap are the exploded slice header of a payload-carrying
	// message's buffer. Storing the three words directly — instead of
	// boxing the []T into an any field — keeps the payload send path
	// allocation-free (a slice-to-interface conversion heap-allocates the
	// header). pptr is an unsafe.Pointer, so the GC keeps the backing
	// array alive while the message is in flight; Recv[T] reconstructs
	// the slice after checking inlType against its own element type,
	// which is exactly the guarantee the old type assertion gave.
	pptr unsafe.Pointer
	plen int
	pcap int
	// inlElems is the inline element count, or -1 when pptr carries the
	// data (0 is a valid empty inline message).
	inlElems int
	// inlType is the interned *T identity of the element type, set on
	// both the inline and the payload path; receives compare it against
	// their own instantiation before touching the bytes.
	inlType reflect.Type
	// inl is the inline payload storage, 8-byte aligned.
	inl [inlineMaxBytes / 8]uint64
}

// mkey is the exact-match key a receive selects on.
type mkey struct {
	src int
	tag int
	ctx int64
}

// fifo is one match key's pending messages in arrival order. Consumed slots
// are nilled as they are popped; when a fifo drains its map entry is
// deleted, so keys of retired communicator contexts (Split/Dup churn,
// resize epochs) do not accumulate in the mailbox forever.
type fifo struct {
	head int
	msgs []*message
}

// mailbox holds pending messages for one rank instance, keyed by the receive
// match triple. Receives match on the exact (src, tag, ctx) only, and within
// one key arrival order is the sender's program order, so a per-key FIFO
// pops precisely the message the old first-match scan of a single arrival
// queue selected — but take is O(1) in the number of pending messages for
// other keys. Under a 16-rank all-to-all fan-in the old scan was quadratic:
// every wake-up rescanned all other senders' pending messages.
type mailbox struct {
	mu     sync.Mutex
	queues map[mkey]*fifo
	// free recycles the last drained fifo cell (and its msgs backing
	// array): most traffic is a ping-pong per match key, so one slot turns
	// the per-message fifo churn into steady-state reuse.
	free *fifo
}

func newMailbox() *mailbox {
	return &mailbox{queues: map[mkey]*fifo{}}
}

// put enqueues a message. Waking the receiver is the sender's
// responsibility: the delivering rank batches the destination into its
// pending-wake list (sendMsg) and flushes the batch to the executor before
// it can itself block, so a send that wakes k ranks costs one executor
// episode, not k.
func (mb *mailbox) put(m *message) {
	k := mkey{src: m.src, tag: m.tag, ctx: m.ctx}
	mb.mu.Lock()
	q := mb.queues[k]
	if q == nil {
		if q = mb.free; q != nil {
			mb.free = nil
		} else {
			q = &fifo{}
		}
		mb.queues[k] = q
	}
	q.msgs = append(q.msgs, m)
	mb.mu.Unlock()
}

// pop removes and returns the head of q, deleting the map entry when the
// fifo drains so the mailbox does not leak one key per retired context.
// Drained cells are parked in the free slot for reuse. The mailbox mutex
// must be held.
func (mb *mailbox) pop(k mkey, q *fifo) *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		delete(mb.queues, k)
		q.head = 0
		q.msgs = q.msgs[:0]
		mb.free = q
	}
	return m
}

// take blocks until a message matching (src, tag, ctx) is available and
// removes the first such message in arrival order. Arrival order from a
// single source is the source's program order, so matching is deterministic.
//
// Instead of sleeping on the mailbox, the rank parks itself in the executor
// and is re-enqueued by the delivering send. The recheck loop plus the
// executor's wake-token protocol make the park race-free: a delivery
// between the queue check and the park deposits a token that the park
// consumes. If every live rank ends up parked, no rank can ever send
// again; the executor's deadlock verdict then panics with a description of
// what each rank is waiting for instead of hanging the process.
func (mb *mailbox) take(rt *Runtime, rank, src, tag int, ctx int64) *message {
	k := mkey{src: src, tag: tag, ctx: ctx}
	for {
		mb.mu.Lock()
		if q := mb.queues[k]; q != nil && q.head < len(q.msgs) {
			m := mb.pop(k, q)
			mb.mu.Unlock()
			return m
		}
		mb.mu.Unlock()
		rt.noteWaiting(rank, src, tag)
		rt.exec.Park(rank)
		rt.clearWaiting(rank)
	}
}

// deadlockState records what each rank instance is parked on, indexed by
// instance id, for the deadlock verdict's dump.
type deadlockState struct {
	mu        sync.Mutex
	waitingOn []waitRec
}

// waitRec records what a parked rank is waiting for. Formatting is
// deferred to the verdict dump, so registering a wait on the park hot
// path stores three words and never allocates.
type waitRec struct {
	src, tag int
	active   bool
}

// admit grows the wait records for k newly admitted ranks.
func (d *deadlockState) admit(k int) {
	d.mu.Lock()
	d.waitingOn = append(d.waitingOn, make([]waitRec, k)...)
	d.mu.Unlock()
}

// formatWaitSet renders the deadlock verdict from the recorded wait set.
func formatWaitSet(waiting []waitRec) string {
	msg := "vmpi: deadlock: all ranks blocked in receive:\n"
	for r, w := range waiting {
		if w.active {
			msg += fmt.Sprintf("  rank %d waiting for (src %d, tag %d)\n", r, w.src, w.tag)
		}
	}
	return msg
}

// rankState is the per-rank mutable state shared by all communicators that
// the rank participates in. It must only be touched by the rank's goroutine.
type rankState struct {
	clock        float64
	phases       map[string]float64
	currentPhase string
	bytesSent    int64
	msgsSent     int64
	splitSeq     int64
	result       any
	// maxExchange is the rank's redistribution staging budget in bytes
	// (Config.MaxExchangeBytes, overridable per rank via
	// Comm.SetMaxExchangeBytes); 0 means unbounded. The messaging layer
	// itself does not enforce it — redistribution planners (internal/redist)
	// read it to schedule bounded-footprint exchange rounds.
	maxExchange int64
	// admit is the virtual time the rank was admitted (0 for founding
	// ranks, the resize time t* for ranks admitted by a grow).
	admit float64
	// retire is the virtual time the rank was retired by a shrink, or -1
	// while the rank is in the world.
	retire float64
	// joinEpoch is the world epoch the rank was admitted in (0 for
	// founding ranks).
	joinEpoch int
	// rec is the rank's append-only observability buffer; all phase,
	// collective, message, and counter events of the rank flow into it.
	rec *obs.Buffer
	// pendingWakes batches the instance ids this rank has delivered
	// messages to but not yet woken. The batch is
	// flushed to the executor in one UnparkBatch episode before the rank
	// can block (recvRaw) or finish, and whenever it reaches wakeBatchMax.
	pendingWakes []int
}

// rankInstance is one rank identity over the whole life of the virtual
// machine. Instance ids are dense, stable, and never reused: founding ranks
// get ids 0..n-1, every rank admitted by a grow gets the next id. The
// executor task id, the mailbox, the observability stream, and the final
// Stats arrays are all indexed by instance id.
type rankInstance struct {
	box *mailbox
	st  *rankState
	// node is the instance's position in the network topology — its world
	// rank in the epoch it was admitted. Survivors of a resize keep their
	// world rank (the surviving prefix), so a node assignment is valid for
	// the instance's whole life, and shrink-then-grow reuses the freed
	// node positions for the admitted instances. The network model charges
	// Cost(node, node, ...), so resized worlds keep physical locality.
	node int
	// comm is the world communicator the instance was admitted with; the
	// executor hands it to the rank body on first dispatch.
	comm *Comm
}

// epochWorld is one epoch's world membership. Worlds are immutable once
// published: a resize builds a fresh epochWorld (sharing the rank
// instances of survivors) and installs it as the runtime's current world,
// so ranks still draining the previous epoch read a stable snapshot.
type epochWorld struct {
	// epoch numbers the world generations, starting at 0.
	epoch int
	// members maps world rank -> instance id.
	members []int
	// ctx is the world communicator's message context, distinct per epoch.
	ctx int64
	// insts indexes every instance admitted up to and including this
	// epoch by instance id (a superset of members: retired instances
	// remain, so stats and obs streams cover them).
	insts []*rankInstance
}

// worldCtx returns the world communicator context for an epoch. Epoch 0 is
// context 0 (the founding world); later epochs get widely spaced bases so
// Split/Dup-derived contexts of different epochs never collide.
func worldCtx(epoch int) int64 {
	return int64(epoch) * 1_000_000_007
}

// Runtime is a virtual machine of ranks connected by a network model.
type Runtime struct {
	model netmodel.Model
	// computeScale multiplies all Compute charges, modelling slower or
	// faster cores (e.g. Blue Gene/Q A2 vs. Xeon).
	computeScale float64
	// traceMsgs additionally records every point-to-point message into the
	// event stream (Config.Trace) — the high-volume part of the stream.
	traceMsgs bool
	// maxRanks bounds the world size Resize may grow to; the network model
	// is validated against it once at Run.
	maxRanks int
	// maxExchangeBytes seeds every rank's redistribution staging budget
	// (Config.MaxExchangeBytes), including ranks admitted by Resize.
	maxExchangeBytes int64
	// f is the rank body; Resize re-invokes it for admitted ranks.
	f func(c *Comm)

	// mu guards world, which rank 0 of a resize swaps while every other
	// rank is quiescent. All cross-goroutine reads go through a lock so
	// the swap is race-free even though it is logically serialized by the
	// resize collective.
	mu    sync.Mutex
	world *epochWorld

	// deadlock holds the per-rank wait descriptions that feed the
	// deadlock verdict's dump.
	deadlock deadlockState
	// exec is the event-driven rank executor. Written once before any rank
	// runs.
	exec *rankexec.Executor
	// execStats is the executor's final meter snapshot.
	execStats *ExecStats
}

// currentWorld returns the runtime's live world snapshot.
func (rt *Runtime) currentWorld() *epochWorld {
	rt.mu.Lock()
	w := rt.world
	rt.mu.Unlock()
	return w
}

// setWorld installs a new world snapshot (resize, on world rank 0 only).
func (rt *Runtime) setWorld(w *epochWorld) {
	rt.mu.Lock()
	rt.world = w
	rt.mu.Unlock()
}

// instComm returns the admission communicator of an instance; the executor
// calls it when first dispatching the instance's task.
func (rt *Runtime) instComm(id int) *Comm {
	return rt.currentWorld().insts[id].comm
}

// Config parameterizes a virtual machine.
type Config struct {
	// Ranks is the number of MPI ranks the world starts with.
	Ranks int
	// MaxRanks bounds the world size Resize may grow to; 0 means Ranks
	// (a fixed-capacity machine). The network model must cover MaxRanks.
	MaxRanks int
	// Model is the network model; nil selects netmodel.NewSwitched().
	Model netmodel.Model
	// ComputeScale multiplies computation charges; 0 means 1.0.
	ComputeScale float64
	// Trace records every point-to-point message for post-run analysis
	// (Stats.Trace).
	Trace bool
	// Workers, when positive, fixes the executor's run-slot count instead
	// of drawing one base slot plus budget extras. It bounds host
	// concurrency only; virtual results are unaffected.
	Workers int
	// MaxExchangeBytes is the per-rank staging budget for redistribution
	// exchanges in bytes: planners in internal/redist decompose any exchange
	// whose per-destination send buffers would exceed it into
	// bounded-footprint rounds. 0 (the default) leaves exchanges unbounded
	// and byte-identical to the historical path; negative panics. Ranks
	// admitted by Resize inherit the configured value.
	MaxExchangeBytes int64
}

// Stats aggregates the outcome of a Run. All per-rank slices are indexed by
// instance id: the founding ranks 0..Ranks-1 followed by every rank
// admitted by a Resize grow, in admission order. Without resizes this is
// exactly the world rank.
type Stats struct {
	// Clocks holds each rank's final virtual clock in seconds (for a
	// retired rank: its clock at retirement).
	Clocks []float64
	// Admit holds each rank's admission time (0 for founding ranks).
	Admit []float64
	// Retire holds each rank's retirement time, or -1 for ranks still in
	// the world at the end of the run. Retire[i] - Admit[i] is a retired
	// rank's virtual lifetime, the node-seconds integrand of the resize
	// cost curves.
	Retire []float64
	// JoinEpoch holds the world epoch each rank was admitted in.
	JoinEpoch []int
	// Phases holds each rank's accumulated named phase times.
	Phases []map[string]float64
	// BytesSent and MessagesSent are per-rank communication counters.
	BytesSent    []int64
	MessagesSent []int64
	// Values holds each rank's result value (whatever the rank function
	// stored via Comm.SetResult), indexed by instance id.
	Values []any
	// Epochs is the number of world epochs the run went through (1 when
	// Resize was never called).
	Epochs int
	// FinalSize is the world size of the last epoch.
	FinalSize int
	// Trace holds the communication record when Config.Trace was set. It
	// is a pure view derived from Events (the send events of the stream).
	Trace *Trace
	// Events is the run's full observability log: per-rank append-ordered
	// phase, collective, barrier, counter/gauge — and, when Config.Trace
	// is set, message — events.
	Events *obs.Log
	// Exec holds the executor's host-side execution meters. Host-domain
	// only: these values depend on the host's scheduling and must never
	// feed golden exports.
	Exec *ExecStats
}

// MaxClock returns the maximum final clock — the virtual wall-clock time of
// the whole run.
func (s *Stats) MaxClock() float64 {
	max := 0.0
	for _, c := range s.Clocks {
		if c > max {
			max = c
		}
	}
	return max
}

// NodeSeconds returns the summed virtual node-allocation time of all
// ranks — the machine cost of the run. A retired rank is billed from its
// admission to its retirement; a rank alive in the final epoch is billed to
// the end of the run (the machine holds its node until teardown). Shrinking
// the world mid-run genuinely reduces the figure, while static
// over-provisioning pays for idle ranks until the end.
func (s *Stats) NodeSeconds() float64 {
	end := s.MaxClock()
	total := 0.0
	for i := range s.Clocks {
		stop := end
		if i < len(s.Retire) && s.Retire[i] >= 0 {
			stop = s.Retire[i]
		}
		total += stop - s.Admit[i]
	}
	return total
}

// MaxPhase returns the maximum across ranks of the accumulated time of the
// named phase. Ranks without the phase contribute zero.
func (s *Stats) MaxPhase(name string) float64 {
	max := 0.0
	for _, p := range s.Phases {
		if v := p[name]; v > max {
			max = v
		}
	}
	return max
}

// PhaseNames returns the sorted union of phase names across ranks.
func (s *Stats) PhaseNames() []string {
	set := map[string]bool{}
	for _, p := range s.Phases {
		for k := range p {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns the total bytes sent by all ranks.
func (s *Stats) TotalBytes() int64 {
	var t int64
	for _, b := range s.BytesSent {
		t += b
	}
	return t
}

// TotalMessages returns the total number of messages sent by all ranks.
func (s *Stats) TotalMessages() int64 {
	var t int64
	for _, m := range s.MessagesSent {
		t += m
	}
	return t
}

// newInstance builds a rank instance with a fresh mailbox, state, and
// observability buffer. id is the instance id, node the network position,
// admit/joinEpoch the admission coordinates.
func (rt *Runtime) newInstance(id, node int, admit float64, joinEpoch int) *rankInstance {
	return &rankInstance{
		box:  newMailbox(),
		node: node,
		st: &rankState{
			phases:      map[string]float64{},
			clock:       admit,
			admit:       admit,
			retire:      -1,
			joinEpoch:   joinEpoch,
			maxExchange: rt.maxExchangeBytes,
			rec:         obs.NewBuffer(id),
		},
	}
}

// Run executes f on a virtual machine described by cfg, one executor task
// per rank, and returns aggregated statistics. It panics if the configuration is
// invalid (e.g. a torus model that cannot cover the rank count).
func Run(cfg Config, f func(c *Comm)) *Stats {
	n := cfg.Ranks
	if n < 1 {
		panic("vmpi: Run needs at least 1 rank")
	}
	maxRanks := cfg.MaxRanks
	if maxRanks == 0 {
		maxRanks = n
	}
	if maxRanks < n {
		panic("vmpi: MaxRanks below Ranks")
	}
	model := cfg.Model
	if model == nil {
		model = netmodel.NewSwitched()
	}
	if err := netmodel.Validate(model, maxRanks); err != nil {
		panic(err)
	}
	scale := cfg.ComputeScale
	if scale == 0 {
		scale = 1
	}
	if cfg.MaxExchangeBytes < 0 {
		panic("vmpi: negative MaxExchangeBytes")
	}
	rt := &Runtime{
		model:            model,
		computeScale:     scale,
		maxRanks:         maxRanks,
		maxExchangeBytes: cfg.MaxExchangeBytes,
		traceMsgs:        cfg.Trace,
		f:                f,
	}
	// All world communicators share one read-only members slice: Comm
	// never mutates members (Split/Dup build fresh slices), and a per-rank
	// copy would cost O(P²) memory at paper-scale rank counts.
	w := &epochWorld{
		epoch:   0,
		members: identity(n),
		ctx:     worldCtx(0),
		insts:   make([]*rankInstance, n),
	}
	for i := range w.insts {
		w.insts[i] = rt.newInstance(i, i, 0, 0)
		w.insts[i].comm = &Comm{
			rt:      rt,
			w:       w,
			rank:    i,
			members: w.members,
			ctx:     w.ctx,
			st:      w.insts[i].st,
		}
	}
	rt.world = w
	rt.deadlock.admit(n)
	runEvent(rt, cfg, n)
	final := rt.currentWorld()
	total := len(final.insts)
	st := &Stats{
		Clocks:       make([]float64, total),
		Admit:        make([]float64, total),
		Retire:       make([]float64, total),
		JoinEpoch:    make([]int, total),
		Phases:       make([]map[string]float64, total),
		BytesSent:    make([]int64, total),
		MessagesSent: make([]int64, total),
		Values:       make([]any, total),
		Epochs:       final.epoch + 1,
		FinalSize:    len(final.members),
	}
	bufs := make([]*obs.Buffer, total)
	for i, inst := range final.insts {
		s := inst.st
		st.Clocks[i] = s.clock
		st.Admit[i] = s.admit
		st.Retire[i] = s.retire
		st.JoinEpoch[i] = s.joinEpoch
		st.Phases[i] = s.phases
		st.BytesSent[i] = s.bytesSent
		st.MessagesSent[i] = s.msgsSent
		st.Values[i] = s.result
		bufs[i] = s.rec
	}
	st.Events = obs.NewLog(bufs)
	if cfg.Trace {
		st.Trace = traceFromLog(st.Events)
	}
	st.Exec = rt.execStats
	return st
}

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// Comm is a communicator: a group of ranks that exchange messages. Each rank
// holds its own Comm value; a Comm must only be used by its own rank. All communicators of one rank share the rank's virtual clock and
// phase timers.
type Comm struct {
	rt      *Runtime
	w       *epochWorld // the world epoch this communicator derives from
	rank    int         // rank within this communicator
	members []int       // instance id of each communicator rank
	ctx     int64       // context id separating message streams of communicators
	st      *rankState
}

// Rank returns the calling rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns the calling rank's global rank id — stable across the
// whole run and across resizes. Without resizes it equals the rank's index
// in the world communicator.
func (c *Comm) WorldRank() int { return c.members[c.rank] }

// Epoch returns the world epoch this communicator derives from (0 for the
// founding world; each Resize starts a new epoch).
func (c *Comm) Epoch() int { return c.w.epoch }

// JoinEpoch returns the epoch the calling rank was admitted in: 0 for
// founding ranks, the epoch created by the admitting Resize otherwise. A
// rank body can use it to tell a fresh start from a resize admission.
func (c *Comm) JoinEpoch() int { return c.st.joinEpoch }

// AdmitTime returns the virtual time the calling rank was admitted (0 for
// founding ranks).
func (c *Comm) AdmitTime() float64 { return c.st.admit }

// Time returns the rank's current virtual clock in seconds.
func (c *Comm) Time() float64 { return c.st.clock }

// Compute advances the rank's virtual clock by the given computation time in
// seconds, scaled by the machine's compute scale.
func (c *Comm) Compute(seconds float64) {
	if seconds < 0 {
		panic("vmpi: negative compute time")
	}
	c.st.clock += seconds * c.rt.computeScale
}

// Model returns the network model of the underlying virtual machine.
func (c *Comm) Model() netmodel.Model { return c.rt.model }

// MaxExchangeBytes returns the rank's redistribution staging budget in
// bytes (0 = unbounded). Planners in internal/redist consult it to decide
// whether an exchange must be decomposed into bounded-footprint rounds.
func (c *Comm) MaxExchangeBytes() int64 { return c.st.maxExchange }

// SetMaxExchangeBytes sets the rank's redistribution staging budget in
// bytes; 0 removes the bound, negative panics. Budgeted redistribution
// plans take one extra collective to agree on a schedule, so — like every
// collective-shaping knob — the budget must be set symmetrically: every
// rank of a communicator that later plans an exchange together must carry
// the same value.
func (c *Comm) SetMaxExchangeBytes(b int64) {
	if b < 0 {
		panic("vmpi: negative MaxExchangeBytes")
	}
	c.st.maxExchange = b
}

// SetResult stores a per-rank result value that Run surfaces in
// Stats.Values. Typically used by tests and the benchmark harness.
func (c *Comm) SetResult(v any) { c.st.result = v }

// AddPhase accumulates dt seconds into the named phase timer and emits a
// synthesized phase-end span [now-dt, now] into the event stream (the
// phase timers in Stats.Phases are an aggregate view of these spans).
func (c *Comm) AddPhase(name string, dt float64) {
	if dt < 0 {
		// Clock deltas are always non-negative; guard against misuse.
		panic(fmt.Sprintf("vmpi: negative phase time for %q", name))
	}
	c.st.phases[name] += dt
	c.st.rec.Record(obs.Event{Kind: obs.KindPhaseEnd, Name: name, T: c.st.clock - dt, T2: c.st.clock})
}

// Phase runs f and accumulates the elapsed virtual time into the named
// phase timer, bracketing it with phase-begin/phase-end events in the
// stream. While f runs, messages sent by this rank are attributed to the
// phase in traces; nested phases attribute to the innermost name.
func (c *Comm) Phase(name string, f func()) {
	prev := c.st.currentPhase
	c.st.currentPhase = name
	t0 := c.st.clock
	c.st.rec.Record(obs.Event{Kind: obs.KindPhaseBegin, Name: name, T: t0})
	f()
	c.AddPhase(name, c.st.clock-t0)
	c.st.currentPhase = prev
}

// PhaseTime returns the accumulated virtual time of the named phase on this
// rank.
func (c *Comm) PhaseTime(name string) float64 { return c.st.phases[name] }

// ResetPhases clears all phase timers on this rank. The event stream is
// append-only and unaffected.
func (c *Comm) ResetPhases() {
	c.st.phases = map[string]float64{}
}

// Obs returns the rank's observability buffer: the append-only event
// stream of phases, collectives, messages, and counters. It must only be
// used from the rank's goroutine; its Len is usable as a mark for Since.
func (c *Comm) Obs() *obs.Buffer { return c.st.rec }

// Counter emits a named counter increment at the current virtual time.
// Counters do not advance the clock; cross-rank totals are summed from the
// event log after the run.
func (c *Comm) Counter(name string, v float64) {
	c.st.rec.Record(obs.Event{Kind: obs.KindCounter, Name: name, Value: v, T: c.st.clock})
}

// Gauge emits a named point sample at the current virtual time.
func (c *Comm) Gauge(name string, v float64) {
	c.st.rec.Record(obs.Event{Kind: obs.KindGauge, Name: name, Value: v, T: c.st.clock})
}

// Split partitions the communicator: ranks supplying the same color form a
// new communicator; ranks are ordered by (key, parent rank). Every rank of
// the parent must call Split. A negative color returns nil for that rank
// (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	mine := entry{color, key, c.rank}
	all := Allgather(c, []entry{mine})
	c.st.splitSeq++
	if color < 0 {
		return nil
	}
	var group []entry
	for _, e := range all {
		if e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	newRank := -1
	for i, e := range group {
		members[i] = c.members[e.rank]
		if e.rank == c.rank {
			newRank = i
		}
	}
	return &Comm{
		rt:      c.rt,
		w:       c.w,
		rank:    newRank,
		members: members,
		ctx:     c.ctx*1_000_003 + int64(color)*1009 + c.st.splitSeq,
		st:      c.st,
	}
}

// Dup returns a communicator with the same group but a separate message
// context. Every rank must call Dup.
func (c *Comm) Dup() *Comm {
	Barrier(c)
	c.st.splitSeq++
	return &Comm{
		rt:      c.rt,
		w:       c.w,
		rank:    c.rank,
		members: append([]int(nil), c.members...),
		ctx:     c.ctx*1_000_003 + 500_009 + c.st.splitSeq,
		st:      c.st,
	}
}

// world returns the global rank (instance) id for a communicator rank.
func (c *Comm) world(rank int) int {
	return c.members[rank]
}

// inst returns the rank instance behind a communicator rank.
func (c *Comm) inst(rank int) *rankInstance {
	return c.w.insts[c.members[rank]]
}
