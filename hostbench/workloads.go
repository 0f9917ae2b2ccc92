package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/paperbench"
	"repro/internal/particle"
	"repro/internal/vmpi"
)

// workload is one named benchmark input. A run repeats identical episodes
// of it: each episode sets up from the seed (input generation, world
// launch, distribution, solver initialisation) and then runs a fixed
// number of steps, so every count and virtual time of an episode repeats
// exactly while the host times vary.
type workload struct {
	name string
	// items is the particle or key count, the throughput numerator.
	items int
	// ranks is the virtual world size.
	ranks int
	// steps is the number of timed steps per episode.
	steps int
	// energyTol and fieldTol, set for the MD workloads, gate the initial
	// solve's relative energy error and RMS field error against the Ewald
	// oracle; a zero fieldTol records the field error without gating it.
	energyTol, fieldTol float64
	episode             func(o episodeOpts) episode
}

// episodeOpts parameterises one episode.
type episodeOpts struct {
	seed int64
	// workers is vmpi.Config.Workers: 0 keeps the engine default (one
	// base slot plus extras from the host budget).
	workers int
	// tr records spans when non-nil.
	tr *tracer
	// keepInitial keeps the initial solve's outputs for the Ewald oracle.
	keepInitial bool
	// setupOnly ends the episode after set-up, with no steps.
	setupOnly bool
	// fault corrupts one rank's state after the first step (one key
	// dropped, or two particles' velocities swapped), so the smoke test
	// can prove the checks notice.
	fault bool
}

// episode is what one episode produced.
type episode struct {
	// setup is the host time before step 1: input generation, world
	// launch, distribution, solver init, tune and initial solve.
	setup float64
	// wall is the host time of the whole episode.
	wall float64
	// stepMS is rank 0's host time per step.
	stepMS []float64
	// vstep is each step's virtual seconds, max over ranks.
	vstep []float64
	// phases is the per-step virtual seconds of each solver phase, max
	// over ranks.
	phases map[string]float64
	// bad marks steps that failed a check.
	bad []bool
	// errs describes the failed checks.
	errs []string
	// digest identifies the final state of every rank.
	digest string
	// stats is the vmpi outcome; lite drops it and keeps exec.
	stats *vmpi.Stats
	exec  *vmpi.ExecStats
	// runStats is rank 0's coupling instrumentation per step (MD only).
	runStats []api.RunStats
	// nbrFallbacks counts neighborhood exchanges that fell back to the
	// collective backend (bigp_neighborhood only).
	nbrFallbacks int
	// initial holds the initial solve's outputs when keepInitial is set.
	initial *solveOut
	// memPeak and heapLiveMax are rank 0's samples at step ends, bytes.
	memPeak, heapLiveMax uint64
}

// failAll marks every step of the episode failed.
func (e *episode) failAll(format string, args ...any) {
	for i := range e.bad {
		e.bad[i] = true
	}
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
}

func (e *episode) failStep(k int, format string, args ...any) {
	e.bad[k] = true
	e.errs = append(e.errs, fmt.Sprintf("step %d: ", k+1)+fmt.Sprintf(format, args...))
}

func (e *episode) failedSteps() int {
	n := 0
	for _, b := range e.bad {
		if b {
			n++
		}
	}
	return n
}

// solveOut is the global particle state after the initial solve,
// concatenated over ranks in rank order.
type solveOut struct {
	box                particle.Box
	pos, q, pot, field []float64
}

// guard runs one episode body and turns a panic (a failing rank, a solver
// error, a deadlock verdict) into an episode whose steps all failed. Each
// episode starts from a collected heap, so the previous episode's garbage
// is not charged to this one.
func guard(steps int, body func(e *episode)) (e episode) {
	e.bad = make([]bool, steps)
	runtime.GC()
	start := time.Now()
	defer func() {
		e.wall = time.Since(start).Seconds()
		if p := recover(); p != nil {
			e.failAll("episode aborted: %v", p)
			e.stats = &vmpi.Stats{Exec: &vmpi.ExecStats{}, Events: &obs.Log{}}
			e.exec = e.stats.Exec
		}
	}()
	body(&e)
	e.exec = e.stats.Exec
	return e
}

// lite drops what only a reference episode needs (the event log, rank
// values and initial solve), so a run holds one episode's memory, not one
// per episode.
func (e episode) lite() episode {
	e.stats, e.initial, e.runStats = nil, nil, nil
	return e
}

// workloads returns the benchmark's workloads; tiny shrinks every size for
// the smoke test.
func workloads(tiny bool) map[string]workload {
	// P2NFFT is an Ewald-type method: its energy is gated at the requested
	// accuracy (paperbench.DefaultConfig, 1e-3) and its fields at the
	// tolerance of the pnfft package's own Ewald test. The FMM's periodic
	// mode is a minimum-image approximation (internal/fmm/tree.go) whose
	// energy the fmm package's Ewald tests gate at 5e-2; the benchmark
	// uses that contract and records the measured errors.
	accuracy := paperbench.DefaultConfig().Accuracy
	fmmMD := mdSpec{particles: 6000, ranks: 8, solver: "fmm", machine: paperbench.JuRoPA(), dist: particle.DistRandom, dt: 0.01, steps: 10, energyTol: 5e-2}
	p2nfftMD := mdSpec{particles: 6000, ranks: 16, solver: "p2nfft", machine: paperbench.Juqueen(), dist: particle.DistGrid, dt: 0.025, thermal: 2.5, resort: true, track: true, steps: 20, energyTol: accuracy, fieldTol: 5e-3}
	merge := bigpSpec{ranks: 4096, perRank: 128, machine: paperbench.JuRoPA(), merge: true, steps: 5}
	nbr := bigpSpec{ranks: 4096, perRank: 128, machine: paperbench.Juqueen(), steps: 20}
	if tiny {
		fmmMD.particles, fmmMD.ranks, fmmMD.steps = 1000, 4, 3
		p2nfftMD.particles, p2nfftMD.ranks, p2nfftMD.steps = 216, 4, 3
		merge.ranks, merge.perRank, merge.steps = 16, 16, 3
		nbr.ranks, nbr.perRank, nbr.steps = 16, 16, 3
	}
	out := map[string]workload{}
	for name, w := range map[string]workload{
		"fmm_md":            fmmMD.workload(),
		"p2nfft_md":         p2nfftMD.workload(),
		"bigp_merge":        merge.workload(),
		"bigp_neighborhood": nbr.workload(),
	} {
		w.name = name
		out[name] = w
	}
	return out
}

// digestOf hashes per-rank digests in rank order.
func digestOf(parts [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range parts {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFloats feeds float64 bit patterns into a running hash.
func hashFloats(h interface{ Write([]byte) (int, error) }, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}
