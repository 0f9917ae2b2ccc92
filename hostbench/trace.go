package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name    string `json:"name"`
	Episode int    `json:"episode"`
	// Rank is the calling rank, or -1 for a host-side call.
	Rank int `json:"rank"`
	// Parent names the enclosing span: rank spans sit inside the
	// episode's vmpi.run_s, host spans inside the episode.
	Parent string `json:"parent"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each rank appends only
// to its own slice, so rank goroutines never share a slice. Rank spans are
// kept for the first spanRanks ranks, every rank of the MD workloads; at
// 4096 ranks all of them would outweigh the run being measured. A nil
// tracer records nothing.
type tracer struct {
	t0      time.Time
	episode int
	hosts   []span
	ranks   [][]span
}

const spanRanks = 16

func newTracer(ranks int) *tracer {
	return &tracer{t0: time.Now(), ranks: make([][]span, min(ranks, spanRanks))}
}

// now returns the span clock, or 0 when tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

// host records a host-side span that began at start.
func (t *tracer) host(name string, start int64) {
	if t == nil {
		return
	}
	t.hosts = append(t.hosts, span{Name: name, Episode: t.episode, Rank: -1, Parent: "episode", Start: start, End: t.now()})
}

// rank records a span of rank r that began at start and returns its end,
// so consecutive spans chain.
func (t *tracer) rank(r int, name string, start int64) int64 {
	if t == nil {
		return 0
	}
	end := t.now()
	if r >= len(t.ranks) {
		return end
	}
	t.ranks[r] = append(t.ranks[r], span{Name: name, Episode: t.episode, Rank: r, Parent: "vmpi.run_s", Start: start, End: end})
	return end
}

// rankSpan records a span of rank r that began at the wall time start.
func (t *tracer) rankSpan(r int, name string, start time.Time) {
	if t == nil {
		return
	}
	t.rank(r, name, start.Sub(t.t0).Nanoseconds())
}

// all returns every span: host spans, then each rank's in rank order.
func (t *tracer) all() []span {
	out := append([]span(nil), t.hosts...)
	for _, s := range t.ranks {
		out = append(out, s...)
	}
	return out
}

// medians returns the median duration in seconds of each span name, over
// host spans and rank 0's spans.
func (t *tracer) medians() map[string]float64 {
	by := map[string][]float64{}
	for _, s := range t.all() {
		if s.Rank <= 0 {
			by[s.Name] = append(by[s.Name], float64(s.End-s.Start)/1e9)
		}
	}
	out := map[string]float64{}
	for name, d := range by {
		out[name] = median(d)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Runtime metrics the benchmark reads.
const (
	mMapped    = "/memory/classes/total:bytes"
	mHeapLive  = "/gc/heap/live:bytes"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mAllocB    = "/gc/heap/allocs:bytes"
	mAllocObjs = "/gc/heap/allocs:objects"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
)

// readMetrics samples the named runtime metrics as float64s.
func readMetrics(names ...string) map[string]float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := map[string]float64{}
	for _, m := range s {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			out[m.Name] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			out[m.Name] = m.Value.Float64()
		}
	}
	return out
}

// sampleMemory returns the memory the Go runtime has mapped and the live
// heap after the last GC, in bytes.
func sampleMemory() (mapped, live uint64) {
	m := readMetrics(mMapped, mHeapLive)
	return uint64(m[mMapped]), uint64(m[mHeapLive])
}

// moduleCPU decodes a gzipped pprof CPU profile and attributes each
// sample's CPU time to the innermost frame inside repro/internal/<module>.
// Samples without such a frame go to "bench" when a frame of this command
// is on the stack and to "runtime" otherwise. Values are seconds.
func moduleCPU(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the sample type measured in nanoseconds.
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		out[p.module(s.locs)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// module names the layer a stack belongs to, leaf frame first.
func (p *profile) module(locs []uint64) string {
	bench := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.str(p.funcNames[fn])
			if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
			}
			if strings.HasPrefix(name, "main.") {
				bench = true
			}
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// profile is the part of a pprof profile.proto the module split needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcNames   map[uint64]int64    // function id → name string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the protobuf wire format of profile.proto: field 1
// sample_type, 2 sample, 4 location, 5 function, 6 string_table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			var st [2]int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2:
			var s sample
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// repeated decodes one occurrence of a repeated varint field, packed
// (data set) or not (v set).
func repeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// fields walks a protobuf message, calling f with each field's number and
// its varint value or length-delimited payload (nil for other types).
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			if data == nil {
				data = []byte{}
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", typ)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
