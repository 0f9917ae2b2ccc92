package vmpi

import (
	"fmt"
	"runtime"
	"testing"
)

// Executor benchmarks: spin-up/teardown cost and alltoall throughput, with
// allocations per op and the post-run heap high-water mark reported.
//
//	go test ./internal/vmpi/ -run - -bench 'Run(16|256|4096)' -benchmem
//
// The interesting numbers at large rank counts are allocs/op and
// peak-heap-B: the executor's lazily spawned, slot-bounded ranks keep the
// resident footprint near the slot count, not P.

// benchSpinup measures an empty Run: machine construction, rank
// spawn/teardown, stats collection.
func benchSpinup(b *testing.B, ranks int) {
	b.ReportAllocs()
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Config{Ranks: ranks}, func(c *Comm) {})
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapInuse > peak {
			peak = m.HeapInuse
		}
	}
	b.ReportMetric(float64(peak), "peak-heap-B")
}

func BenchmarkRun16(b *testing.B)   { benchSpinup(b, 16) }
func BenchmarkRun256(b *testing.B)  { benchSpinup(b, 256) }
func BenchmarkRun4096(b *testing.B) { benchSpinup(b, 4096) }

// benchAlltoall measures the pairwise alltoall — the highest-contention
// mailbox workload the paper configurations use.
func benchAlltoall(b *testing.B, ranks, rounds, payloadLen int) {
	payload := make([]float64, payloadLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Config{Ranks: ranks}, func(c *Comm) {
			for r := 0; r < rounds; r++ {
				parts := make([][]float64, ranks)
				for dst := range parts {
					buf := make([]float64, 0, len(payload))
					parts[dst] = append(buf, payload...)
				}
				recv := AlltoallOwned(c, parts)
				ReleaseBlocks(recv)
			}
		})
	}
}

func BenchmarkAlltoallRun(b *testing.B) {
	for _, cfg := range []struct{ ranks, rounds, payload int }{
		{16, 4, 256},
		{64, 2, 64},
	} {
		b.Run(fmt.Sprintf("p%d", cfg.ranks), func(b *testing.B) {
			benchAlltoall(b, cfg.ranks, cfg.rounds, cfg.payload)
		})
	}
}
