# Development entry points. CI runs the same targets.

# bash + pipefail so a benchmark failure is not masked by the benchjson
# pipe in the bench target.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: build test race vet fmt-check bench bench-smoke bench-gate bench-verify benchcmp examples apiseal fuzz service-test cluster-test chaos-test schedload-smoke bench-schedd profile atlas perfbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench runs the core scheduler benchmarks (incremental engine variants vs
# the full-rebuild oracle on the size sweep and the topology sweep, the
# DLS comparison and the warm-vs-cold reschedule pair) and writes the
# machine-readable BENCH_core.json at the repo root via cmd/benchjson —
# the committed file is the performance trajectory's previous point,
# which bench-gate compares against.
# -count 3 + benchjson's best-of-N dedup damps runner noise enough for the
# 15% regression gate to hold on shared CI machines. The small
# BenchmarkBSA rows (n=100 and n=200, 2-15 ms per op) run apart, as six
# one-count invocations of 20 iterations each: every row's best then
# comes from samples spread across the run, and each incremental sample
# sits within a second of its oracle counterpart. Taken as a best of 9
# single iterations in one block per row, their oracle-relative speedups
# spread over 0.94-1.47 (n=100) and 0.82-1.59 (n=200) across six runs of
# one build on a 2-vCPU host, and one 60-iteration, three-count
# invocation did no better; six rounds of 20 read 0.90-1.14 and
# 0.99-1.28.
BENCH_SMALL := ^BenchmarkBSA$$/^(incremental|oracle)$$/^n=(100|200)$$
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkBSA$$|BenchmarkBSATopologies$$|BenchmarkDLS$$|BenchmarkReschedule$$' -skip '$(BENCH_SMALL)' -benchtime 3x -count 3 . && \
	  for i in 1 2 3 4 5 6; do $(GO) test -run '^$$' -bench '$(BENCH_SMALL)' -benchtime 20x -count 1 . || exit 1; done; } | $(GO) run ./cmd/benchjson -out BENCH_core.json

# bench-smoke executes every benchmark once so they cannot bit-rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-gate re-runs bench against the committed BENCH_core.json and fails
# on a >15% regression of the oracle-relative speedups (the ratio form
# survives host changes; see cmd/benchcmp). The filter gates the FULL
# matrix — every BenchmarkBSA size row and every BenchmarkBSATopologies
# topology row — so a regression on the documented hot spots (full=16,
# the n=1000/2000 production sizes, full=32/ring=64) cannot pass CI
# silently; best-of-6 at 20 iterations (n=100, n=200, see bench) and
# best-of-9 at 3 iterations (every larger row) damp the noise enough for
# the shared 15% threshold. Entries present in only one report are listed by benchcmp
# but do not gate.
bench-gate:
	@cp BENCH_core.json /tmp/bench-baseline.json
	@rm -f BENCH_core.json  # a failed bench must not leave the stale committed report behind
	$(MAKE) bench
	$(GO) run ./cmd/benchcmp -speedups -filter '^BenchmarkBSA' -max-regress 0.15 /tmp/bench-baseline.json BENCH_core.json

# bench-verify fails loudly when BENCH_core.json is missing, unparseable
# or empty — CI runs it before publishing the bench artifact so the bench
# trajectory can never silently come back blank.
bench-verify:
	$(GO) run ./cmd/benchjson -verify BENCH_core.json

# perfbench-smoke runs the end-to-end benchmark's own checks. perfbench is
# a separate Go module, so `go test ./...` never builds it: this runs its
# tests, then each workload for one timed second with per-layer tracing,
# which exercises its correctness gate (every schedule validated, nsl
# checked) and its engine-stats keys. Any non-zero exit fails the target.
perfbench-smoke:
	cd perfbench && $(GO) test -count 1 .
	for w in bsa-dense bsa-sparse schedd-mixed; do \
		bash perfbench/run.sh --workload $$w --seconds 1 --trace 1 >/dev/null || exit 1; \
	done

# apiseal runs the API-leak regression gate (no internal types in the
# public packages' exported signatures) and the standalone external
# consumer module build.
apiseal:
	$(GO) test ./sched -run TestAPISeal -count 1
	$(GO) test ./tests -run TestExternalConsumerBuilds -count 1

# fuzz runs each fuzz target for FUZZTIME (the CI smoke uses 20s; raise it
# locally for a real hunt): the seven loader targets; FuzzBSA, the
# scheduler's differential target (both backends against the full-rebuild
# oracle on generated instances, ablation options and a tie-heavy cost
# mode); FuzzReschedule, its warm-start counterpart (both backends
# reconverging from an adopted schedule on a rescaled system, under a
# fuzzed dirty frontier, must agree byte for byte); and FuzzTimelineFit
# and FuzzSoaFit, which check the memoized earliest-fit scans of both
# slot layouts against a memo-free scan. Go runs one -fuzz target per
# invocation, hence the eleven lines. Seed corpora are committed
# under sched/testdata/fuzz, sched/{graph,system,workload}/testdata/fuzz
# and the golden interchange files; the workload corpora are seeded from
# the testdata/workloads scenario pack, and the scheduler and fit
# targets' seeds are f.Add entries.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./sched/graph -run '^$$' -fuzz '^FuzzGraphFromDOT$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched/graph -run '^$$' -fuzz '^FuzzGraphFromJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched/system -run '^$$' -fuzz '^FuzzSystemFromDOT$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched/system -run '^$$' -fuzz '^FuzzSystemFromJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched -run '^$$' -fuzz '^FuzzDeltaFromJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched/workload -run '^$$' -fuzz '^FuzzWorkloadSTG$$' -fuzztime $(FUZZTIME)
	$(GO) test ./sched/workload -run '^$$' -fuzz '^FuzzWorkloadJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzBSA$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzReschedule$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/schedule -run '^$$' -fuzz '^FuzzTimelineFit$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzSoaFit$$' -fuzztime $(FUZZTIME)

# atlas regenerates the README results atlas in one command: every
# topology family x algorithm x heterogeneity on one seeded instance,
# every schedule validated + replay-checked, spliced between the README's
# atlas markers. Deterministic: a second run leaves README.md untouched
# (CI asserts byte identity).
atlas:
	$(GO) run ./cmd/experiments -atlas -algos BSA,DLS,HEFT,CPOP -readme README.md

# service-test runs the scheduling service's handler + drain suite under
# the race detector, plus the end-to-end test that builds and SIGTERMs a
# real schedd.
service-test:
	$(GO) test -race -count 1 ./sched/service
	$(GO) test -race -count 1 ./tests -run 'TestSchedd'

# cluster-test runs the distributed-schedd net: the store conformance
# suite (memory + WAL), WAL crash/recovery, the in-process replica-tier
# tests, and the two process-level proofs — SIGKILL + reboot on the same
# WAL directory, and kill-one-of-three with a backlog outstanding. The
# test harness runs under the race detector; the schedd child binaries
# are plain builds (the in-process cluster tests cover the server code
# under -race).
cluster-test:
	$(GO) test -race -count 1 ./sched/service -run 'TestStore|TestWAL|TestCluster|TestBatch|TestIdempotent|TestJobEvents'
	$(GO) test -race -count 1 ./tests -run 'TestScheddWALRestart|TestScheddClusterKillOneOfThree'

# chaos-test runs the fault-injection suite under the race detector: the
# resilience tests (store-failure surfacing, client retry, SSE
# reconnect, in-process failover) and the seeded chaos harness (3-node
# tier under dropped/reset/5xx'd wire traffic, breaker load-shedding,
# random store write failures). The seeds are fixed in the tests, so a
# red run reproduces locally with this exact command. The JSON verbose
# log is written for CI to upload on failure.
chaos-test:
	$(GO) test -race -count 1 -v ./sched/service -run 'TestSubmitStore|TestWaitRetries|TestRetryHonors|TestWatchReconnect|TestClusterFailover' 2>&1 | tee chaos-service.log
	$(GO) test -race -count 1 -v ./tests -run 'TestChaos' 2>&1 | tee chaos-e2e.log

# schedload-smoke drives an in-process schedd open-loop for 30 seconds
# with the default sync/async/batch mix and fails on any 5xx; the report
# is written to BENCH_schedd.json (CI uploads it as the service perf
# artifact). The committed BENCH_schedd.json is instead produced by
# bench-schedd below.
schedload-smoke:
	$(GO) run ./cmd/schedload -rps 100 -duration 30s -fail-on-5xx -out BENCH_schedd.json

# bench-schedd regenerates the committed BENCH_schedd.json: the
# closed-loop single-vs-batch comparison whose batch_speedup field is the
# batch endpoint's acceptance floor (>= 2x jobs/sec over one-at-a-time
# submission of the same jobs; below it schedload still writes the
# report, then fails the target). The point is deliberately wire-bound —
# small 10-task jobs in batches of 64 over one connection — because
# batching amortizes wire + admission overhead, not scheduling compute:
# on compute-bound jobs (the default 40-task heft ~0.5ms each) the ratio
# is physically capped near 1.5x no matter how good the batch path is.
bench-schedd:
	$(GO) run ./cmd/schedload -compare -duration 5s -conns 1 -n 10 -batch 64 -fail-on-5xx -out BENCH_schedd.json

# profile captures CPU and allocation profiles of the BSA engine on its
# evaluation-heaviest benchmark point (fully connected 16-processor
# network, n=500, SoA backend) and a CPU profile of the bsa-sparse shape
# (ring-16, n=500, reference backend, where the fit scans dominate), then
# prints each CPU profile's top 15 functions and writes the same summary
# to profile.txt. Open interactively with
#     go tool pprof -http=: bsa.test cpu.pprof
# README's "Profiling the engine" section explains what the two profiles
# normally look like and which shapes indicate a regression.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkBSATopologies/incremental$$/full=16$$' -benchtime 10x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o bsa.test .
	$(GO) test -run '^$$' -bench 'BenchmarkBSATopologies/incremental$$/ring=16$$' -benchtime 20x \
		-cpuprofile cpu-ring.pprof -o bsa.test .
	{ echo "== full=16, n=500 (SoA backend): cpu.pprof"; \
	  $(GO) tool pprof -top -nodecount 15 bsa.test cpu.pprof; \
	  echo "== ring=16, n=500 (reference backend): cpu-ring.pprof"; \
	  $(GO) tool pprof -top -nodecount 15 bsa.test cpu-ring.pprof; } | tee profile.txt
	@echo "wrote cpu.pprof, mem.pprof, cpu-ring.pprof, profile.txt (binary: bsa.test)"
	@echo "view: go tool pprof -http=: bsa.test cpu.pprof"

# benchcmp diffs two bench JSONs locally: make benchcmp OLD=a.json NEW=b.json
benchcmp:
	$(GO) run ./cmd/benchcmp $(BENCHCMP_FLAGS) $(OLD) $(NEW)

# examples builds every example against the public sched API and runs the
# quickstart end to end, so the documented library surface cannot rot.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
