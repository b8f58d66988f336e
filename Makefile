GO ?= go

.PHONY: build fmt vet test race lint contract recovery chaos stream dist perfbench verify fuzz bench bench-all profile

build:
	$(GO) build ./...

# Formatting gate: every tracked Go file is gofmt-clean.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Unchecked-error lint over the durability layers (persist, and
# resilience, which classifies and retries their failures), where a
# dropped error result means silent data loss, plus the server and jobs
# packages, where a dropped error can lose an ingest batch or a job
# journal entry, the result cache, shard coordinator and request
# contract that every mine runs through, core, which holds the one
# mining entry point, and tpmd, which opens, inspects and closes the
# store. vet plus the repo's own errcheck-style checker (cmd/errlint);
# assign to _ to mark a deliberately best-effort call.
lint: vet
	$(GO) run ./cmd/errlint ./internal/persist ./internal/resilience ./internal/server ./internal/jobs ./internal/cache ./internal/remote ./internal/shard ./internal/core ./internal/api ./cmd/tpmd

# Race-enabled run; the cancellation/backpressure tests exercise real
# concurrency, so this is the form CI should run.
race:
	$(GO) test -race ./...

# Route contract: every route the server serves must be documented in
# the README API reference table (and actually resolve on the mux).
# Byte contract: mine responses (every mode, hit, miss, coalesced and
# uncached) and a job's stored rows equal an independent encoding/json
# rendering. Exposition contract: a fresh server's /v1/metrics carries
# exactly the HELP and TYPE lines of a golden file, in order. Error
# contract: every error class an in-memory server reaches answers with
# the uniform envelope and its status, code, field and Retry-After.
contract:
	$(GO) test ./internal/server -run 'TestRoutesDocumentedInREADME|TestRouteTableIsServed|TestMineBytesMatchOracle|TestMetricsExpositionGolden|TestV1ErrorEnvelopeShape|TestErrorPaths'

# Crash-recovery gate: the persist fault-injection tests (torn tail,
# corrupt CRC mid-log, partial snapshot, crash during compaction), the
# file-layer tests (atomic put, WAL append/truncate/reopen, and the
# per-operation counts), and the server restart round-trips, under the
# race detector. `race` already runs these; this target exists to run
# them alone and by name, so a durability regression is unmissable in
# CI output.
recovery:
	$(GO) test -race ./internal/persist -run 'TestRecovery|TestCrash|TestClean|TestFiles|TestConformanceFaultStore|TestSetMetricsWiresBlobOps'
	$(GO) test -race ./internal/server -run 'TestRestart|TestPersisted'

# Chaos gate: the randomized fault-schedule suite, the step-by-step
# degraded-mode tests that drive a server over a faulted store (failure
# scores, trips, probes and the breaker-state gauge in resilience;
# degraded cache hits in cache), and the persist fault-injection tests,
# under the race detector. The headline test draws a fresh seed each
# run and logs it; replay a failure exactly with
# TPMD_CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race ./internal/server -run 'TestChaos' -count=1
	$(GO) test -race ./internal/resilience ./internal/cache -run 'TestBreaker|TestDegradedHitAccounting' -count=1
	$(GO) test -race ./internal/persist -run 'TestBootRemoves|TestWALWriteRetries|TestTornWALWrite|TestPermanentFailure|TestFsyncFailure|TestSnapshotFault' -count=1

# Streaming gate: the NDJSON-ingest + continuous-job end-to-end test
# (cumulative SSE deltas must equal a fresh batch mine byte-for-byte,
# across a restart), the SSE lifecycle tests (disconnect leaves no
# goroutines, slow consumers are dropped not blocked on), job
# durability, and the two ingest commit tests (a request whose flush
# fails buffers nothing, so its retry ingests once; auto-create never
# overwrites a racing PUT), and the FuzzJobDeltasAgree seeds (on
# FuzzMinePathsAgree's draw, cumulative job deltas equal a batch mine
# after a PUT and after an append) — all under the race detector, since
# every one of them exercises the jobs manager's or the batcher's
# concurrency.
stream:
	$(GO) test -race ./internal/server -run 'TestStreaming|TestSSE|TestJobDelete|TestIngestRequestAllOrNothing|TestIngestCreateRacingPut|FuzzJobDeltasAgree' -count=1
	$(GO) test -race ./internal/jobs

# Distributed-mining gate: the remote-worker conformance suite, the
# pool's push, worker-health, address and failover unit tests, the
# shard coordinator's exactness suites (sharded plain, top-k and
# closed/maximal mines equal the serial miner at every shard count) and
# the count round's pruning soundness tests (a candidate counted on no
# silent shard is below the threshold by brute force; a truncated shard
# prunes nothing), the
# FuzzMinePathsAgree seeds (serial, in-process sharded and pool mines
# with failover must agree with each other and with the brute-force
# oracle, before and after the closed and maximal filters, all through
# core.Mine and core.Filter), the chaos schedule over flaky
# workers, the server-level acceptance test (remote byte-identical to
# local sharded, exact failover when a worker dies mid-mine, no
# goroutine leaks), and the two coordinator-restart tests (kept workers
# serve the same shards after a restart over an appended dataset, and
# decode the new split after a shard-count change), and the two shared-worker
# tests (two coordinators holding the same dataset name and version with
# different data each mine their own shards, and interleaved mines push
# each shard once with no retry) — all under the race
# detector, since the pool and its clients are exercised
# concurrently by the coordinator's fan-out.
dist:
	$(GO) test -race ./internal/remote -count=1
	$(GO) test -race ./internal/shard -run 'WorkerConformance|FanOutError|WorkerAddr|TestShardedMatchesSerial|TestShardedTopKMatchesSerial|TestShardedClosedMaximal|TestPrunedCandidatesNeverQualify|TestTruncatedShardPrunesNothing'
	$(GO) test -race ./internal/server -run 'TestRemoteMineMatchesLocal|TestRemoteRestartAfterAppend|TestRemoteRestartWithNewShardCount|TestRemoteCoordinatorsShareWorker|TestRemoteCoordinatorsInterleave' -count=1

# perfbench is its own Go module that imports internal/ APIs, so the
# root build never sees a change that breaks it; vet and test it here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The full pre-merge gate. fmt keeps every tracked Go file gofmt-clean;
# vet and race cover every package, including internal/obs and the
# instrumented server/scheduler paths; lint fails on unchecked errors in
# the durability, server, and jobs layers; contract keeps the README API
# table in lockstep with the served routes and pins the mine response
# bytes against an independent encoding; recovery re-runs the persist
# crash-recovery suite by name; chaos re-rolls the randomized fault
# schedule with a fresh seed; stream re-runs the streaming/SSE/
# job-durability suite by name; dist re-runs the remote-worker/failover
# suite by name; perfbench vets and tests the benchmark module against
# the current internal/ APIs.
verify: build fmt vet lint race contract recovery chaos stream dist perfbench

# Runs every Fuzz* target in the module for FUZZTIME each, one at a time
# (go test -fuzz takes a single target per run). Not part of verify:
# plain `go test` already replays each target's seed corpus.
FUZZTIME ?= 15s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz $$t ./$$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) ./$$(dirname $$f); \
		done; \
	done

# Runs the Fig-1 workload (at GOMAXPROCS=1 and =NumCPU), the sharded
# Fig-1a series, the remote-worker Fig-1a series over loopback HTTP,
# and the core micro-benchmarks, writing BENCH_core.json
# with speedups against bench/baseline.json. Gates: no workload point
# below 0.95x of the committed baseline, shards=1 within 0.95x of
# unsharded (coordinator overhead), and — on multi-core machines only —
# shards≈NumCPU at least 1.5x faster than shards=1.
bench:
	$(GO) run ./cmd/benchjson -o BENCH_core.json -min-speedup 0.95 -min-shard-ratio 0.95 -min-sharded-speedup 1.5

# The old kitchen-sink benchmark run, kept for exploratory use.
bench-all:
	$(GO) test -bench=. -benchmem

# Captures CPU and heap profiles of the sharded Fig-1a workload into
# ./profiles/ for pprof inspection:
#   go tool pprof profiles/fig1a_sharded_cpu.pprof
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench Fig1aSharded -benchtime 20x \
		-cpuprofile profiles/fig1a_sharded_cpu.pprof \
		-memprofile profiles/fig1a_sharded_mem.pprof -o profiles/tpminer.test .
