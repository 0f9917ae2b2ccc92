// Package obs is the unified observability layer: one append-only event
// stream that the virtual MPI runtime, the coupling pipeline, and the
// solvers emit into, with exporters (Chrome trace-event JSON, Prometheus
// text metrics, comm-matrix summaries) and derived views (vmpi.Trace,
// api.RunStats) built on top.
//
// Determinism contract: obs is part of the determinism-analyzer hot set.
// Events carry only virtual timestamps, stamped by the emitter; the
// package never reads the host clock. Buffers are per-rank and
// append-only — each is touched only by its rank's goroutine, so no locks
// are needed and event order per rank is deterministic.
package obs

// Kind discriminates event records in the stream.
type Kind uint8

const (
	// KindPhaseBegin marks entry into a named phase at virtual time T.
	KindPhaseBegin Kind = iota
	// KindPhaseEnd marks a completed phase span [T, T2]. Synthesized
	// phase accounting (vmpi.Comm.AddPhase) emits only this kind.
	KindPhaseEnd
	// KindSend records a point-to-point message leaving Rank for Peer
	// (world rank) with Tag and Bytes; T is the send start, T2 the
	// modeled arrival time. Name carries the sender's current phase.
	KindSend
	// KindArrive records a message being received on Rank from Peer; T is
	// the modeled arrival time, T2 the receiver's clock after the receive
	// overhead. Name carries the receiver's current phase.
	KindArrive
	// KindCollective records a collective operation span [T, T2] on Rank;
	// Name is the operation ("barrier", "bcast", "alltoall", ...).
	KindCollective
	// KindBarrier records the span [T, T2] a rank spent inside Barrier —
	// T2-T is the rank's barrier wait.
	KindBarrier
	// KindCounter is a monotonic named count increment of Value at T.
	KindCounter
	// KindGauge is a named point sample of Value at T.
	KindGauge
)

// String returns the kind's stable lowercase name (used by exporters).
func (k Kind) String() string {
	switch k {
	case KindPhaseBegin:
		return "phase-begin"
	case KindPhaseEnd:
		return "phase-end"
	case KindSend:
		return "send"
	case KindArrive:
		return "arrive"
	case KindCollective:
		return "collective"
	case KindBarrier:
		return "barrier"
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "unknown"
}

// Event is one record in the stream. Field use by kind:
//
//	PhaseBegin:  Name, T
//	PhaseEnd:    Name, T (begin), T2 (end)
//	Send:        Name (phase), Peer (dst world rank), Tag, Bytes, T (send), T2 (arrive)
//	Arrive:      Name (phase), Peer (src world rank), Bytes, T (arrive), T2 (post-overhead)
//	Collective:  Name (operation), T, T2
//	Barrier:     T, T2
//	Counter:     Name, Value, T
//	Gauge:       Name, Value, T
//
// Rank is the emitting world rank, stamped by the Buffer.
type Event struct {
	Kind  Kind
	Rank  int
	Name  string
	Peer  int
	Tag   int
	Bytes int
	T     float64 // virtual seconds
	T2    float64 // virtual seconds (span end / arrival)
	Value float64
}

// Dur returns the event's span length in virtual seconds (0 for point
// events).
func (e Event) Dur() float64 {
	if e.T2 > e.T {
		return e.T2 - e.T
	}
	return 0
}

// Recorder accepts events. Implementations must be safe for use from the
// emitting rank's goroutine only; cross-rank aggregation happens after the
// run from the per-rank buffers.
type Recorder interface {
	Record(Event)
}

// Buffer is the per-rank append-only event sink. The runtime allocates one
// per world rank; each is written only by that rank's goroutine.
type Buffer struct {
	rank   int
	events []Event
}

// NewBuffer creates a buffer that stamps events with the given world rank.
func NewBuffer(rank int) *Buffer {
	return &Buffer{rank: rank}
}

// Record implements Recorder: stamps the rank and appends.
func (b *Buffer) Record(e Event) {
	e.Rank = b.rank
	b.events = append(b.events, e)
}

// Len returns the number of recorded events (usable as a mark for Since).
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the recorded events. The slice is owned by the buffer;
// callers must not modify it.
func (b *Buffer) Events() []Event { return b.events }

// Since returns the events recorded at or after the given mark (a previous
// Len value).
func (b *Buffer) Since(mark int) []Event {
	if mark < 0 {
		mark = 0
	}
	if mark > len(b.events) {
		mark = len(b.events)
	}
	return b.events[mark:]
}

// tee fans one stream out to several recorders.
type tee []Recorder

func (t tee) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// Tee returns a Recorder that forwards every event to all of rs, in order.
// Nil recorders are skipped; Tee() with no live recorders returns nil.
func Tee(rs ...Recorder) Recorder {
	var live tee
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}
