# Developer entry points. `make check` is the local tier-1 gate: build,
# vet, the repo's own static analyzers (cmd/parlint), full tests, a
# race-detector pass, and the vmpi ownership checker build (-tags
# vmpidebug).

GO ?= go

.PHONY: all build test race bench bench-figs bench-bigp bench-figmem vet lint debugtest golden golden-update golden-par fig10 golden-bigp golden-bigp-update golden-resize golden-resize-update golden-mem golden-mem-update check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector needs real goroutine interleaving; force a few Ps even
# on single-core hosts. The long drift simulations in paperbench skip
# themselves under the race detector (see race_on_test.go).
race:
	GOMAXPROCS=4 $(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Regenerates the wall-clock + virtual-seconds report for Figures 6-9 and
# prints (and checks in) the delta against the BENCH_1.json baseline taken
# before the kernel plan caches and the experiment scheduler. Virtual
# seconds must not move (paperbench exits 1 if one does, after the delta
# is printed); wall-clock is the host-performance result.
bench-figs:
	$(GO) run ./cmd/paperbench -fig all -bench BENCH_2.json -bench-baseline BENCH_1.json > BENCH_DELTA.txt; \
		status=$$?; cat BENCH_DELTA.txt; exit $$status

# Figure 10 extends the strategy comparison to the paper's machine sizes
# (64 ... 16384 ranks) on the event-driven rank executor; the full sweep
# takes a few minutes, dominated by the 16384-rank merge-sort cells.
fig10:
	$(GO) run ./cmd/paperbench -fig 10

# Writes the per-rank-count benchmark report (wall clock, post-run memory,
# executor meters) for the Figure 10 sweep and prints (and checks in) the
# rank_rows delta against BENCH_3.json — the large-P host-performance
# baseline taken before the §15 fast path. Virtual seconds must not move
# (paperbench exits 1 if one does); wall clock and heap are the
# host-performance result.
bench-bigp:
	$(GO) run ./cmd/paperbench -fig 10 -bench BENCH_5.json -bench-baseline BENCH_3.json > BENCH_5_DELTA.txt; \
		status=$$?; cat BENCH_5_DELTA.txt; exit $$status

vet:
	$(GO) vet ./...

# Repo-specific analyzers (see DESIGN.md §9): buffer ownership
# (ownedbuf), hot-path determinism (determinism), SPMD collective
# symmetry (collsym), run-slot blocking (parkblock), host-budget leaks
# (budgetleak), and hot-kernel allocations (hotalloc).
lint:
	$(GO) run ./cmd/parlint ./...

# The runtime ownership checker: vmpi tests with use-after-transfer and
# double-release detection compiled in.
debugtest:
	$(GO) test -tags vmpidebug ./internal/vmpi/...

# Regenerates the paper figures with the canonical invocation (see
# EXPERIMENTS.md) and byte-diffs them against the checked-in baseline.
# Any divergence — a changed virtual time anywhere in Figures 6-9 — fails.
# To accept an intentional change: make golden-update, then review the diff.
# The same invocation exports the canonical observability run (the Fig. 9
# torus steady state) as a Chrome trace timeline and a metrics dump, which
# are byte-diffed against the checked-in obs_trace.json/obs_metrics.txt;
# the export notices go to stderr, so stdout stays byte-stable.
#
# JOBS is the experiment scheduler's worker count (paperbench -j). The
# figure bytes are identical at any value — golden-par proves it by
# diffing a -j 1 run against a -j 8 run — so golden runs parallel by
# default and only wall-clock time depends on the host.
JOBS ?= 8

golden:
	$(GO) run ./cmd/paperbench -fig all -particles 6000 -ranks 8 -ranks-list 2,4,8,16 -j $(JOBS) \
		-trace-out obs_trace.got.json -metrics-out obs_metrics.got.txt > paperbench_output.got.txt
	diff -u paperbench_output.txt paperbench_output.got.txt
	diff -u obs_trace.json obs_trace.got.json
	diff -u obs_metrics.txt obs_metrics.got.txt
	rm -f paperbench_output.got.txt obs_trace.got.json obs_metrics.got.txt

golden-update:
	$(GO) run ./cmd/paperbench -fig all -particles 6000 -ranks 8 -ranks-list 2,4,8,16 -j $(JOBS) \
		-trace-out obs_trace.json -metrics-out obs_metrics.txt > paperbench_output.txt

# Serial-vs-parallel byte identity: the canonical invocation at -j 1 and
# -j 8 must produce identical stdout, trace, and metrics bytes (and match
# the checked-in baselines).
golden-par:
	$(GO) run ./cmd/paperbench -fig all -particles 6000 -ranks 8 -ranks-list 2,4,8,16 -j 1 \
		-trace-out obs_trace.j1.json -metrics-out obs_metrics.j1.txt > paperbench_output.j1.txt
	$(GO) run ./cmd/paperbench -fig all -particles 6000 -ranks 8 -ranks-list 2,4,8,16 -j 8 \
		-trace-out obs_trace.j8.json -metrics-out obs_metrics.j8.txt > paperbench_output.j8.txt
	diff -u paperbench_output.j1.txt paperbench_output.j8.txt
	diff -u obs_trace.j1.json obs_trace.j8.json
	diff -u obs_metrics.j1.txt obs_metrics.j8.txt
	diff -u paperbench_output.txt paperbench_output.j1.txt
	diff -u obs_trace.json obs_trace.j1.json
	diff -u obs_metrics.txt obs_metrics.j1.txt
	rm -f paperbench_output.j1.txt paperbench_output.j8.txt \
		obs_trace.j1.json obs_trace.j8.json obs_metrics.j1.txt obs_metrics.j8.txt

# Large-P smoke golden: the 1024-rank Figure 10 point must stay
# byte-identical to the checked-in baseline. This is the cheap stand-in for
# the full 64...16384 sweep that gates the event executor at a rank count
# three orders of magnitude above the Figure 6-9 configurations. The second
# run pins the sharded executor to 4 run slots: figure bytes must not
# depend on the worker count (DESIGN.md §15).
golden-bigp:
	$(GO) run ./cmd/paperbench -fig 10 -ranks-list 1024 -j $(JOBS) > paperbench_fig10_1024.got.txt
	diff -u paperbench_fig10_1024.txt paperbench_fig10_1024.got.txt
	$(GO) run ./cmd/paperbench -fig 10 -ranks-list 1024 -j $(JOBS) -workers 4 > paperbench_fig10_1024.w4.txt
	diff -u paperbench_fig10_1024.txt paperbench_fig10_1024.w4.txt
	rm -f paperbench_fig10_1024.got.txt paperbench_fig10_1024.w4.txt

golden-bigp-update:
	$(GO) run ./cmd/paperbench -fig 10 -ranks-list 1024 -j $(JOBS) > paperbench_fig10_1024.txt

# Elastic-worlds golden: the resize cost figure (live vmpi.Resize with
# particle remapping vs static peak over-provisioning, both machine
# models) must stay byte-identical to the checked-in baseline. The same
# invocation exports the elastic grow leg's Chrome trace and metrics dump,
# which carry the resize epochs (vmpi/resize and elastic/remap spans,
# resize counter, world-size gauge) and are byte-diffed against the
# checked-in obs_resize_trace.json/obs_resize_metrics.txt. The second run pins the executor to
# one run slot (fully serialized ranks): figure bytes must not depend on
# the worker count.
golden-resize:
	$(GO) run ./cmd/paperbench -fig resize -j $(JOBS) \
		-trace-out obs_resize_trace.got.json -metrics-out obs_resize_metrics.got.txt \
		> paperbench_resize.got.txt
	diff -u paperbench_resize.txt paperbench_resize.got.txt
	diff -u obs_resize_trace.json obs_resize_trace.got.json
	diff -u obs_resize_metrics.txt obs_resize_metrics.got.txt
	$(GO) run ./cmd/paperbench -fig resize -j $(JOBS) -workers 1 > paperbench_resize.w1.txt
	diff -u paperbench_resize.txt paperbench_resize.w1.txt
	rm -f paperbench_resize.got.txt paperbench_resize.w1.txt \
		obs_resize_trace.got.json obs_resize_metrics.got.txt

golden-resize-update:
	$(GO) run ./cmd/paperbench -fig resize -j $(JOBS) \
		-trace-out obs_resize_trace.json -metrics-out obs_resize_metrics.txt > paperbench_resize.txt

# Memory-budget golden: Figure M (the unbounded exchange exhausting the
# staging budget vs the redist planner's bounded rounds, plus the three
# sort strategies under the same budget, both machine models) must stay
# byte-identical to the checked-in baseline. The same invocation exports
# the planned exchange's Chrome trace and metrics dump, which carry the
# redist/peak_bytes gauge and counter and are byte-diffed against the
# checked-in obs_mem_trace.json/obs_mem_metrics.txt. The second run pins the executor to
# one run slot: figure bytes must not depend on the worker count.
golden-mem:
	$(GO) run ./cmd/paperbench -fig mem -j $(JOBS) \
		-trace-out obs_mem_trace.got.json -metrics-out obs_mem_metrics.got.txt \
		> paperbench_mem.got.txt
	diff -u paperbench_mem.txt paperbench_mem.got.txt
	diff -u obs_mem_trace.json obs_mem_trace.got.json
	diff -u obs_mem_metrics.txt obs_mem_metrics.got.txt
	$(GO) run ./cmd/paperbench -fig mem -j $(JOBS) -workers 1 > paperbench_mem.w1.txt
	diff -u paperbench_mem.txt paperbench_mem.w1.txt
	rm -f paperbench_mem.got.txt paperbench_mem.w1.txt \
		obs_mem_trace.got.json obs_mem_metrics.got.txt

golden-mem-update:
	$(GO) run ./cmd/paperbench -fig mem -j $(JOBS) \
		-trace-out obs_mem_trace.json -metrics-out obs_mem_metrics.txt > paperbench_mem.txt

# Writes the Figure M benchmark report (memory-budget strategies, both
# machine models: virtual times, metered staging peaks, wall clock).
bench-figmem:
	$(GO) run ./cmd/paperbench -fig mem -bench BENCH_4.json

check: build vet lint test debugtest race golden golden-bigp golden-resize golden-mem
