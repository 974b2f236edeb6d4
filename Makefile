GO ?= go

.PHONY: build test race checkptr vet rackvet bench bench-kernels bench-pipeline bench-netsched bench-skew bench-baseline trace-overhead faultcheck perfbench-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector: the scheduler, pipeline, and
# observability plane share mutable state across goroutines, and the
# cheap packages add negligible time on top of ./internal/core.
race:
	$(GO) test -race ./...

# Dynamic unsafe.Pointer validation (-d=checkptr is implied by -race on
# amd64/arm64, but an explicit non-race run catches alignment and
# arithmetic violations with exact failure points) on the packages that
# use unsafe: the word-store kernels and the hot loops built on them.
checkptr:
	$(GO) test -gcflags=all=-d=checkptr ./internal/radix ./internal/relation \
		./internal/hashtable ./internal/core

vet:
	$(GO) vet ./...

# rackvet is the repo's own static-analysis suite (internal/analyzers,
# DESIGN.md §11 and §16): buffer-pool lifecycle, span begin/end balance,
# atomics discipline, unsafe.Pointer keep-alive rules, metric naming,
# lock ordering, goroutine lifecycle, and hot-path allocation. Blocking:
# a finding fails check and CI. rackvet.json is the machine-readable
# findings report CI uploads as an artifact.
rackvet:
	$(GO) run ./cmd/rackvet -json-out rackvet.json ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# Kernel microbenchmarks (scalar vs write-combining scatter, scalar vs
# batched probe), formatted into BENCH_kernels.json by cmd/benchfmt.
# Override BENCHTIME for quick smoke runs (e.g. BENCHTIME=1x in CI).
BENCHTIME ?= 1s
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchtime $(BENCHTIME) -timeout 30m \
		./internal/radix ./internal/hashtable | $(GO) run ./cmd/benchfmt > BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

# Barrier vs partition-ready pipelining on a throttled sim fabric
# (DESIGN.md §10), formatted into BENCH_pipeline.json; the
# barrier→pipelined speedup entry is the headline number. One `go test`
# process per variant: whichever variant runs second in a shared process
# re-faults ~100 MB of scavenged slab pages inside the timed loop (see
# bench_pipeline_test.go), which would skew the comparison.
bench-pipeline:
	( $(GO) test -run '^$$' -bench 'BenchmarkPipelineJoin/barrier' -benchtime $(BENCHTIME) -timeout 30m . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPipelineJoin/pipelined' -benchtime $(BENCHTIME) -timeout 30m . ) \
		| $(GO) run ./cmd/benchfmt > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

# Scheduled vs unscheduled network pass at 16–64 simulated machines
# (DESIGN.md §13), formatted into BENCH_netsched.json. ns/op carries the
# deterministic simulated network-pass time (not host time), so the
# off→rotate/off→weighted speedup pairs compare modeled performance.
bench-netsched:
	$(GO) test -run '^$$' -bench 'BenchmarkNetschedSweep' -benchtime $(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchfmt > BENCH_netsched.json
	@echo "wrote BENCH_netsched.json"

# Skew engine off vs on across a Zipf sweep at 16 simulated machines
# (DESIGN.md §15), formatted into BENCH_skew.json. ns/op carries the
# deterministic simulated join time, so the off→engine speedup pairs and
# the TestSkewBaselineJSON acceptance gate compare modeled performance.
bench-skew:
	$(GO) test -run '^$$' -bench 'BenchmarkSkewSweep' -benchtime $(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchfmt > BENCH_skew.json
	@echo "wrote BENCH_skew.json"

# Advisory regression gate: rerun the kernel benchmarks and flag any
# result more than 10% slower than the checked-in BENCH_kernels.json.
# Exits non-zero on regressions; `check` runs it best-effort (benchmark
# noise on shared machines is not a build failure).
bench-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchtime $(BENCHTIME) -timeout 30m \
		./internal/radix ./internal/hashtable | \
		$(GO) run ./cmd/benchfmt -baseline BENCH_kernels.json > /dev/null
	( $(GO) test -run '^$$' -bench 'BenchmarkPipelineJoin/barrier' -benchtime $(BENCHTIME) -timeout 30m . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPipelineJoin/pipelined' -benchtime $(BENCHTIME) -timeout 30m . ) \
		| $(GO) run ./cmd/benchfmt -baseline BENCH_pipeline.json > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkNetschedSweep' -benchtime $(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchfmt -baseline BENCH_netsched.json > /dev/null
	$(GO) test -run '^$$' -bench 'BenchmarkSkewSweep' -benchtime $(BENCHTIME) -timeout 30m . \
		| $(GO) run ./cmd/benchfmt -baseline BENCH_skew.json > /dev/null

# Tracing-overhead smoke bench (DESIGN.md §12): the join with the causal
# tracer + flight recorder mounted vs bare, min-of-N comparison, 2%
# wall-clock budget. Env-gated so plain `go test ./...` stays
# deterministic; `check` runs it best-effort (noise is not a failure).
trace-overhead:
	RACKJOIN_TRACE_OVERHEAD=1 $(GO) test -run TestTraceOverheadBudget -v -count=1 .

# Fault-injected validation of the health plane (DESIGN.md §14): every
# injected fault at 8–64 machines must produce the matching detector
# naming the injected culprit, and clean runs across all transport
# modes must stay diagnosis-free. Blocking: a miss or a false positive
# fails check and CI.
faultcheck:
	$(GO) test -run 'TestFaultInjectionSweep|TestCleanRunsQuiet' -count=1 -v ./internal/health

# Smoke test of the end-to-end benchmark (perfbench/, BENCHMARK.json):
# every workload at tiny scale, untraced and traced, must emit every
# declared metric with its unit. perfbench is its own module, so the
# root `go test ./...` does not reach it.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

check: build vet rackvet test race faultcheck perfbench-smoke
	-$(MAKE) bench-baseline BENCHTIME=1x
	-$(MAKE) trace-overhead
