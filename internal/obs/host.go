package obs

import "sync"

// HostBuffer is the host-domain counterpart of Buffer: a mutex-guarded,
// append-only event sink for schedule-dependent quantities — executor
// meters, buffer-pool statistics, scheduler job metrics — that may be
// written from any goroutine.
//
// The split matters for the determinism contract: per-rank Buffers feed
// the golden exports, whose bytes may not depend on host scheduling, so
// nothing schedule-dependent may ever be recorded there. HostBuffer events
// stay on the host side (bench reports, diagnostics) and are never merged
// into a virtual machine's Log. The package stays free of wall-clock
// reads.
type HostBuffer struct {
	mu     sync.Mutex
	events []Event
	cursor int
}

// NewHostBuffer creates an empty host-side event sink.
func NewHostBuffer() *HostBuffer {
	return &HostBuffer{}
}

// Record implements Recorder; safe from any goroutine.
func (h *HostBuffer) Record(e Event) {
	h.mu.Lock()
	h.events = append(h.events, e)
	h.mu.Unlock()
}

// Counter appends a named counter increment (Rank and timestamps zero
// unless the caller stamped them).
func (h *HostBuffer) Counter(name string, v float64) {
	h.Record(Event{Kind: KindCounter, Name: name, Value: v})
}

// Gauge appends a named point sample.
func (h *HostBuffer) Gauge(name string, v float64) {
	h.Record(Event{Kind: KindGauge, Name: name, Value: v})
}

// Len returns the number of recorded events.
func (h *HostBuffer) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// Take returns the events recorded since the previous Take (all events on
// the first call) and advances the internal cursor, so successive callers
// can attribute host metrics to spans of work. The returned slice is a
// stable view; the buffer only ever appends past it.
func (h *HostBuffer) Take() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.events[h.cursor:len(h.events):len(h.events)]
	h.cursor = len(h.events)
	return out
}

// SumCounters folds counter events into per-name totals, returning the
// names in first-appearance order (no map iteration — HostBuffer consumers
// render these into deterministic reports).
func SumCounters(events []Event) (names []string, totals []float64) {
	idx := map[string]int{}
	for _, e := range events {
		if e.Kind != KindCounter {
			continue
		}
		i, ok := idx[e.Name]
		if !ok {
			i = len(names)
			idx[e.Name] = i
			names = append(names, e.Name)
			totals = append(totals, 0)
		}
		totals[i] += e.Value
	}
	return names, totals
}
