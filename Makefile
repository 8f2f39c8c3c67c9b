GO ?= go

# Packages with parallel host-side execution; the race target drives the
# differential tests (degrees 1/2/8), the scheduler/fault stress tests,
# the concurrent span-tracer stress test, and bluserve's end-to-end
# serving-stack test (serve, obsd and the profile captor running
# concurrently) under the race detector.
PARALLEL_PKGS = ./internal/parallel ./internal/columnar ./internal/expr \
                ./internal/evaluator ./internal/bsort ./internal/engine \
                ./internal/sched ./internal/fault ./internal/trace \
                ./internal/monitor ./internal/metrics ./internal/fusion \
                ./internal/serve ./internal/prof ./internal/hostmem \
                ./internal/obsd ./cmd/bluserve

.PHONY: build vet test race bench check bench-gate wall-gate fuse-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The end-to-end checks run here too: cmd/bluserve's TestServingStack
# drives the assembled serving stack (metrics and /healthz, admission
# lifecycle, request-ID join, prof ledger, breaker alerts), and
# cmd/blubench's TestTraceAndExplainExports validates the trace and
# EXPLAIN ANALYZE exports.
test:
	$(GO) test ./...

race:
	$(GO) test -race $(PARALLEL_PKGS)

# Per-layer micro-benchmarks: columnar gather, bsort partial-key build
# and host sort range, expr's predicate scan (row-at-a-time reference vs
# bound) and derive, the engine's hash join and the evaluator chain.
bench:
	$(GO) test -bench 'ParallelGather|PartialKeyBuild|HostSortRange|EvalPredicate|Derive|HashJoin|BuildInput' \
		-benchmem -run '^$$' \
		./internal/columnar ./internal/bsort ./internal/expr ./internal/engine ./internal/evaluator

# Perf-regression gate: run the benchdiff suite and compare the modeled
# (deterministic) timings against the committed BENCH_0.json baseline.
bench-gate:
	$(GO) run ./cmd/benchdiff -out /tmp/blu-bench-current.json

# Wall-clock regression gate: the suite runs three times, the modeled
# columns must not drift across repeats, and the median wall_ms_p50 per
# experiment may grow at most 4x (threshold 3.0) over the BENCH_4.json
# baseline, above a 10ms noise floor. The generous threshold, noise
# floor and median-of-repeats make the gate stable enough that CI now
# runs it as a blocking step alongside the modeled bench-gate.
# -trend-slope additionally fails the run if a gated sustained-serving
# trend series (queue depth, shed rate) drifts upward faster than
# 50 units/s instead of holding steady state; it engages once a
# baseline that carries series is committed.
wall-gate:
	$(GO) run ./cmd/benchdiff -baseline BENCH_4.json -wall-repeats 3 \
		-wall-threshold 3.0 -wall-floor-ms 10 -trend-slope 50 \
		-out /tmp/blu-bench-wall.json

# Data-path fusion smoke: run the BD + ROLAP suites through a fused and
# an unfused engine over the same dataset, diff every result table
# byte-for-byte, and assert the fused run moved fewer H2D bytes.
fuse-smoke:
	$(GO) run ./cmd/fusecheck

check: vet test race fuse-smoke bench-gate
