// Command tpmd runs the mining HTTP service.
//
//	tpmd -addr :8080 -max-mines 8 -mine-timeout 30s
//
// Endpoints, all under /v1 — nothing is served outside it (see
// internal/server for the full API):
//
//	PUT    /v1/datasets/{name}         upload a dataset (csv/lines/json body)
//	POST   /v1/datasets/{name}/events  stream NDJSON event intervals (batched appends)
//	POST   /v1/datasets/{name}/mine    mine patterns; mode temporal, coincidence, or rules
//	POST   /v1/jobs                    create a continuous-mining job
//	GET    /v1/jobs/{id}/events        job delta stream (Server-Sent Events)
//	GET    /v1/routes                  the machine-readable route table
//
// Streaming: -ingest-flush-count and -ingest-flush-age bound how many
// events (and how long) the ingest route buffers before flushing a
// versioned append. Continuous-mining jobs re-mine a dataset when it
// changes (debounced by -job-debounce or the job's debounce_ms) and
// publish pattern deltas over SSE; -sse-queue bounds each subscriber's
// event queue (slow consumers are dropped, not allowed to stall the
// job) and -sse-heartbeat paces keep-alive comments. Jobs and their
// latest results are journaled with the datasets, so with persistence
// on they survive restarts.
//
// The server is resource-bounded: -max-mines caps concurrent mining
// jobs (excess requests get 429), -mine-timeout is the hard per-job
// deadline (requests may lower it via timeout_ms), -max-parallel caps
// the per-request worker count (requests ask via "parallel"), and
// -max-body caps request bodies. On SIGINT or SIGTERM the server stops
// accepting connections and drains in-flight requests — mining jobs
// finish within their deadline — for up to -grace before exiting.
//
// Sharded mining: a whole-dataset mine partitions the dataset's current
// snapshot into up to -shards size-balanced sequence shards
// (0 = GOMAXPROCS, 1 = unsharded); the split depends only on the
// snapshot and the flags, so it is the same in every mine and after a
// restart. Every mine runs through one shard coordinator: a single
// shard (or a window) mines serially, two or more mine scatter-gather
// with an exact merge, so responses, cache keys, and ETags are
// byte-identical to unsharded mining.
// -shard-min-seqs keeps small datasets on fewer shards (no fan-out
// overhead below ~16 sequences per shard by default). Per-shard
// timings, fan-out counts, and partition skew appear as tpmd_shard_*
// metrics.
//
// Distributed mining: -role=worker turns the process into a mining
// worker — it serves only /v1/worker/* (shard push, mine, count,
// health) and holds no datasets of its own. A -role=server process
// given -workers=http://w1:9090,http://w2:9090 scatters the shards of
// whole-dataset mines across those workers: each shard's sub-database
// is pushed once per dataset version (gzip wire encoding) and cached on
// the worker under the SHA-256 digest of its bytes, which every mine and
// count names, mined remotely, and merged exactly as in-process sharding
// would — an unreachable worker's shard is transparently re-mined
// locally, so results, ETags, and cache keys never change. The
// coordinator and its workers must run the same build. Worker
// health is probed every -worker-probe-interval and reported on
// GET /v1/readyz; per-dataset placement appears on
// GET /v1/datasets/{name}/shards and traffic as tpmd_remote_* metrics.
//
// Complete mine results (patterns or rules) are memoized in a byte-budgeted LRU and
// concurrent identical requests collapse into one miner run
// (single-flight); -cache-budget sizes the cache and -no-cache disables
// both. Responses carry strong ETags and honor If-None-Match with 304.
//
// Durability: with -data-dir the datasets survive restarts. Every
// mutation (PUT, append, DELETE) commits to a CRC32C-checksummed
// write-ahead log before it is acknowledged; once the log passes
// -wal-max-bytes the server cuts a snapshot and compacts. On boot the
// newest valid snapshot is loaded and the WAL tail replayed (a torn
// final record — the signature of a crash mid-write — is truncated
// away), restoring dataset contents, versions, and ETag continuity.
// -fsync picks the durability/latency trade-off: always (fsync per
// record), interval (background flush every 100ms), never (OS decides).
// Without -data-dir the server is purely in-memory. -inspect-wal <dir>
// dumps a data directory's record headers, flags the first corrupt
// frame, and exits; it never modifies the directory, and a missing one
// is an error.
//
// Fault tolerance: transient journal I/O errors are retried with
// jittered backoff; repeated or permanent failures (disk full,
// read-only filesystem) trip a circuit breaker and the server degrades
// to read-only — mutations get 503 "degraded" with Retry-After while
// reads and mining keep serving — until a background probe (every
// -probe-interval) proves the disk healthy again and restores
// read-write automatically. -breaker-threshold tunes the trip point.
// GET /v1/healthz stays 200 and reports the mode; GET /v1/readyz
// returns 503 while degraded so load balancers can drain writes.
// -fault-profile (with -fault-seed) injects persistence faults for
// chaos drills; never use it in production.
//
// Observability: GET /v1/metrics serves Prometheus text exposition
// (request, cache, mining-job, miner-search, and persistence counters;
// see internal/server). Logs are structured via log/slog; -log-format
// selects text or json and -log-level sets the minimum level.
//
// For live profiling, -pprof-addr starts a second listener serving
// net/http/pprof (e.g. -pprof-addr localhost:6060). It is off by
// default and should never be exposed publicly.
//
// Example session:
//
//	go run ./cmd/datagen -dataset patient -size 200 -q | \
//	    curl -sS -X PUT --data-binary @- -H 'Content-Type: text/csv' \
//	         localhost:8080/v1/datasets/patients
//	curl -sS localhost:8080/v1/datasets/patients/mine \
//	     -d '{"min_support":0.15,"max_intervals":3}' | jq .
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux, served only by -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tpminer/internal/obs"
	"tpminer/internal/persist"
	"tpminer/internal/remote"
	"tpminer/internal/resilience"
	"tpminer/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// Nothing is left to report a failed stderr write to.
		_, _ = fmt.Fprintln(os.Stderr, "tpmd:", err)
		os.Exit(1)
	}
}

// serve runs srv until SIGINT or SIGTERM, then stops accepting
// connections and drains in-flight requests for up to grace. It returns
// the listener's error if the listener fails first, else the drain's.
func serve(srv *http.Server, grace time.Duration, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", srv.Addr)
		errc <- srv.ListenAndServe()
	}()
	// SIGTERM is what container orchestrators send; treat it exactly
	// like Ctrl-C so both get a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("signal received, draining in-flight requests", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained, exiting")
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("tpmd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxMines := fs.Int("max-mines", 0, "max concurrent mining jobs (0 = GOMAXPROCS); excess requests get 429")
	mineTimeout := fs.Duration("mine-timeout", server.DefaultMaxMineDuration, "hard per-job mining deadline")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
	maxParallel := fs.Int("max-parallel", 0, "ceiling on per-request mining parallelism (0 = GOMAXPROCS)")
	cacheBudget := fs.Int64("cache-budget", server.DefaultCacheBudgetBytes, "byte budget for the mine-result cache")
	noCache := fs.Bool("no-cache", false, "disable result caching and single-flight request coalescing")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period for draining in-flight requests")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled; keep it loopback-only)")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	dataDir := fs.String("data-dir", "", "directory for the dataset WAL and snapshots (empty = in-memory only)")
	fsyncMode := fs.String("fsync", persist.FsyncAlways, "WAL fsync policy with persistence: always, interval, or never")
	walMaxBytes := fs.Int64("wal-max-bytes", persist.DefaultWALMaxBytes, "WAL size that triggers snapshot + compaction")
	inspectWAL := fs.String("inspect-wal", "", "dump the WAL/snapshot record headers in this data dir and exit")
	probeInterval := fs.Duration("probe-interval", time.Second, "how often a degraded server probes persistence for recovery")
	breakerThreshold := fs.Int("breaker-threshold", 0, "weighted persistence-failure score that trips the breaker into read-only mode (0 = default)")
	faultProfile := fs.String("fault-profile", "", "DEV ONLY: inject persistence faults, e.g. 'wal_write:eio:0.1,snapshot_sync:latency:0.5:20ms'")
	faultSeed := fs.Int64("fault-seed", 1, "seed for the -fault-profile randomness (deterministic per seed)")
	role := fs.String("role", "server", "process role: server (the full API) or worker (a mining worker serving /v1/worker/*)")
	workers := fs.String("workers", "", "comma-separated worker base URLs to distribute shard mining across, e.g. http://w1:9090,http://w2:9090 (server role only)")
	workerProbe := fs.Duration("worker-probe-interval", 0, "worker health-probe cadence (0 = built-in default)")
	shards := fs.Int("shards", 0, "mining shards per dataset (0 = GOMAXPROCS, 1 = unsharded); results are identical either way")
	shardMinSeqs := fs.Int("shard-min-seqs", server.DefaultShardMinSeqs, "minimum average sequences per shard; caps the shard count on small datasets")
	ingestFlushCount := fs.Int("ingest-flush-count", server.DefaultIngestFlushCount, "buffered ingest events that trigger an inline flush into a versioned append")
	ingestFlushAge := fs.Duration("ingest-flush-age", server.DefaultIngestFlushAge, "max age of a buffered ingest event before a timer flush")
	jobDebounce := fs.Duration("job-debounce", 0, "default debounce between a dataset change and a job re-mine (0 = built-in default; jobs may override per-spec)")
	sseQueue := fs.Int("sse-queue", 0, "per-subscriber SSE event queue; a subscriber that falls this far behind is dropped (0 = built-in default)")
	sseHeartbeat := fs.Duration("sse-heartbeat", server.DefaultSSEHeartbeat, "interval between SSE heartbeat comments on idle job streams")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspectWAL != "" {
		return persist.Inspect(*inspectWAL, os.Stdout)
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	switch *role {
	case "server":
	case "worker":
		// A worker serves only /v1/worker/* (shard push, mine, count,
		// health, metrics). It holds only pushed shard payloads, all of
		// them re-pushable, so a worker restart costs one re-push per
		// shard, never data.
		ws := remote.NewWorkerServer(remote.WorkerConfig{Logger: logger, MineTimeout: *mineTimeout})
		return serve(&http.Server{Addr: *addr, Handler: ws.Handler(), ReadHeaderTimeout: 10 * time.Second}, *grace, logger)
	default:
		return fmt.Errorf("-role: unknown role %q (want server or worker)", *role)
	}
	var workerList []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerList = append(workerList, w)
		}
	}
	budget := *cacheBudget
	if *noCache || budget <= 0 {
		budget = -1
	}
	var injector resilience.Injector
	if *faultProfile != "" {
		prof, err := resilience.ParseProfile(*faultProfile, *faultSeed)
		if err != nil {
			return fmt.Errorf("-fault-profile: %w", err)
		}
		injector = prof
		logger.Warn("FAULT INJECTION ACTIVE: persistence I/O will fail on purpose; never use -fault-profile in production",
			"profile", *faultProfile, "seed", *faultSeed)
	}
	var pstore *persist.Store
	if *dataDir != "" {
		pstore, err = persist.Open(*dataDir, persist.Options{
			FsyncMode:   *fsyncMode,
			WALMaxBytes: *walMaxBytes,
			Logger:      logger,
			Injector:    injector,
		})
		if err != nil {
			return err
		}
	}
	// Deferred first, so it runs last, after the HTTP drain and after
	// svc.Close flushes buffered ingest events: flush and fsync the WAL
	// and cut a final snapshot, on every path out of run.
	defer func() {
		if pstore == nil {
			return
		}
		if err := pstore.Close(); err != nil {
			logger.Error("persist close failed", "error", err)
			return
		}
		logger.Info("persist flushed and snapshotted", "store", *dataDir)
	}()
	svc := server.NewWithConfig(logger, server.Config{
		MaxConcurrentMines:      *maxMines,
		MaxMineDuration:         *mineTimeout,
		MaxBodyBytes:            *maxBody,
		MaxParallel:             *maxParallel,
		CacheBudgetBytes:        budget,
		Persist:                 pstore,
		BreakerFailureThreshold: *breakerThreshold,
		RecoveryProbeInterval:   *probeInterval,
		Shards:                  *shards,
		ShardMinSeqs:            *shardMinSeqs,
		IngestFlushCount:        *ingestFlushCount,
		IngestFlushAge:          *ingestFlushAge,
		JobDebounce:             *jobDebounce,
		SSESubscriberQueue:      *sseQueue,
		SSEHeartbeat:            *sseHeartbeat,
		Workers:                 workerList,
		WorkerProbeInterval:     *workerProbe,
	})
	// Flush buffered ingest events and stop the jobs and the recovery
	// prober before the persist store is closed underneath them.
	defer svc.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof listener is separate from the API listener so the
	// profiling surface is never reachable through the public address.
	// It holds no state, so it is closed without a drain.
	if *pprofAddr != "" {
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server failed", "error", err)
			}
		}()
		defer pprofSrv.Close()
	}

	return serve(srv, *grace, logger)
}
