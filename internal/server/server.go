// Package server exposes the miner as an HTTP service: named in-memory
// datasets with upload/append endpoints and a mining endpoint per
// pattern type. It is the integration surface a downstream system would
// deploy (cmd/tpmd wraps it); everything is stdlib net/http.
//
// # API (v1)
//
// Every route is mounted under /v1; nothing is served outside it. The
// table below is also served machine-readably at GET /v1/routes. JSON
// in/out unless noted:
//
//	GET    /v1/healthz                      liveness (200 even when degraded)
//	GET    /v1/readyz                       readiness (503 while degraded)
//	GET    /v1/metrics                      Prometheus text exposition
//	GET    /v1/routes                       this table, machine-readable
//	GET    /v1/datasets                     list datasets with summaries
//	PUT    /v1/datasets/{name}              create/replace; body is csv,
//	                                        lines, or json per Content-Type
//	GET    /v1/datasets/{name}              dataset summary (ETag, 304)
//	DELETE /v1/datasets/{name}              remove
//	POST   /v1/datasets/{name}/append       append sequences (same formats)
//	POST   /v1/datasets/{name}/events       NDJSON event stream; batched
//	                                        into versioned appends; 202 ack
//	GET    /v1/datasets/{name}/shards       shard layout and placement
//	POST   /v1/datasets/{name}/mine         body: MineSpec (mode temporal|
//	                                        coincidence|rules, optional
//	                                        window); patterns or rules with
//	                                        supports (ETag, 304)
//	POST   /v1/jobs                         create a continuous mining job
//	GET    /v1/jobs                         list jobs
//	GET    /v1/jobs/{id}                    job status
//	DELETE /v1/jobs/{id}                    delete job (journaled)
//	GET    /v1/jobs/{id}/result             latest stored result (ETag, 304)
//	GET    /v1/jobs/{id}/events             SSE delta stream (Last-Event-ID
//	                                        resume, heartbeats)
//
// Errors use one JSON envelope on every route and status:
// {"error":{"code","message","field"},"request_id":"..."} — code is a
// stable machine-readable class, field names the offending request field
// on validation errors. Handlers pass errors, never statuses, to
// writeError, the one mapping from an error's class to its status, code,
// and Retry-After hint.
//
// # Result caching and request coalescing
//
// Mining is deterministic for a fixed (dataset, options) pair, so
// complete mine results (patterns or rules) are memoized in a
// byte-budgeted LRU (internal/cache) keyed by (dataset name, dataset
// version, canonical options). A result is encoded once, by the run
// that mines it; the entry is those bytes, and a hit writes them with
// only the per-request "cache" field spliced in. Every dataset mutation
// (PUT, append, DELETE) bumps the dataset's version, which changes the
// key — invalidation is exact, not TTL-guessed. Concurrent identical
// requests collapse into a single miner run via a single-flight group;
// the one result fans out to every waiter. Responses expose how they
// were served: a "cache" field (hit|miss|coalesced) plus an X-Cache
// header, and a strong ETag derived from (dataset, version, options)
// that clients may return via If-None-Match for a 304 without any
// mining. Truncated results and failed runs are never cached and carry
// no ETag.
//
// # Operational hardening
//
// Every request carries a request ID (client-supplied X-Request-ID or
// generated), echoed in the response header, error bodies, and logs. A
// panic anywhere below the middleware becomes a structured 500 instead
// of a dropped connection. Mining work is bounded three ways: a
// semaphore caps concurrent mining jobs with deadline-aware admission
// (a request parks only while a slot could still free up before its
// deadline and is shed with 429 + Retry-After otherwise), every job
// runs under a context deadline (server ceiling, optionally lowered per
// request via timeout_ms) and aborts with 504, and requests may trade
// completeness for latency with time_budget_ms / max_patterns, which
// return partial results flagged truncated. Oversized bodies are
// rejected with 413. Request fields are validated up front: negative
// budgets, limits, or worker counts are rejected with 400 before a
// mining slot is claimed.
//
// # Graceful degradation
//
// With persistence enabled, journal I/O runs through the resilient
// journal (resilience.go), the one owner of degraded mode: it scores
// persistence failures, and when the score trips it the server degrades
// to read-only — mutations fail fast with 503, stable code "degraded",
// and a Retry-After hint, while reads, cached results, and fresh mines
// over resident datasets keep serving. The episode's one background
// prober periodically asks the store to prove itself again
// (persist.Store.Probe); the first success ends the episode and
// restores read-write automatically. GET /v1/healthz stays 200
// throughout (the process is alive; restarting would not help) while
// GET /v1/readyz turns 503 so load balancers can steer writes away.
//
// # Observability
//
// The server logs structured records via log/slog (one "request" record
// per request with route, status, duration, and request ID) and exposes
// a Prometheus registry at GET /v1/metrics: per-route request counters
// and latency histograms, in-flight and backpressure gauges, cache
// hit/miss/coalesced/eviction counters with a resident-bytes gauge,
// mining-run outcomes, and the miner's own node/scan/P1–P4-pruning/
// work-stealing counters. The Retry-After hint
// on 429 responses is derived from the observed mine-duration histogram.
// See internal/server/metrics.go for the metric inventory.
//
// # Sharded mining
//
// The store keeps only versioned data. Every mine — temporal,
// coincidence, or rules, batch or job run — goes through one
// shard.Coordinator, built on a cache miss: a whole-dataset mine splits
// the snapshot into size-balanced disjoint shards (internal/shard), a
// pure function of the snapshot and the shard configuration, so a
// (dataset, version, shard) key names the same sequences in every mine
// and after every restart. A window, or a dataset that splits into one
// shard, mines inside one worker with the request's options unchanged.
// With two or more shards the coordinator fans out: every shard runs
// the dense-index miner at a relaxed partition-aware support bound, and
// the coordinator merges per-shard supports exactly, so results — and
// therefore cache keys, ETags, and response bytes — are identical to
// serial mining. The -shards / -shard-min-seqs flags on cmd/tpmd
// (Config.Shards / Config.ShardMinSeqs here) size the split; GET
// /v1/datasets/{name}/shards computes it on demand, and tpmd_shard_*
// metrics expose fan-outs, per-shard durations, and partition skew.
//
// # Streaming and continuous jobs
//
// POST /v1/datasets/{name}/events ingests NDJSON event lines, batching
// them into ordinary versioned appends (flush on count or age —
// Config.IngestFlushCount / Config.IngestFlushAge), so cache
// invalidation, ETags, persistence, and sharding all see ingest as
// appends. A job (internal/jobs) watches a dataset and re-mines it
// through the same cached, sharded, single-flighted path as the mine
// endpoint whenever the version moves, publishing the delta between
// consecutive results over SSE at GET /v1/jobs/{id}/events; clients
// resume with Last-Event-ID and cumulative delta application is
// byte-identical to a fresh batch mine. Jobs and their latest results
// journal through the same store (and resilient journal) as datasets,
// surviving restarts. See DESIGN.md "Continuous mining".
package server

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"tpminer/internal/api"
	"tpminer/internal/cache"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/obs"
	"tpminer/internal/pattern"
	"tpminer/internal/persist"
	"tpminer/internal/remote"
	"tpminer/internal/rules"
	"tpminer/internal/shard"
)

// Defaults for Config zero values.
const (
	// DefaultMaxBodyBytes caps uploads and requests (64 MiB).
	DefaultMaxBodyBytes = 64 << 20
	// DefaultMaxMineDuration is the server-side ceiling on one mining
	// job.
	DefaultMaxMineDuration = 60 * time.Second
	// DefaultCacheBudgetBytes is the default resident-byte budget of the
	// mine-result cache (128 MiB).
	DefaultCacheBudgetBytes = 128 << 20
	// DefaultShardMinSeqs is the minimum average sequences per shard: a
	// dataset is only split while every shard would keep at least this
	// many sequences, so tiny datasets never pay fan-out overhead.
	DefaultShardMinSeqs = 16
	// DefaultIngestFlushCount is how many buffered ingest events force a
	// versioned append.
	DefaultIngestFlushCount = 512
	// DefaultIngestFlushAge is how long a partial ingest batch may sit
	// buffered before it is flushed anyway.
	DefaultIngestFlushAge = 200 * time.Millisecond
	// DefaultSSEHeartbeat is the idle-comment cadence on job event
	// streams, keeping intermediaries from timing out quiet connections.
	DefaultSSEHeartbeat = 15 * time.Second
)

// Config bounds the server's resource usage. The zero value selects
// sensible defaults.
type Config struct {
	// MaxConcurrentMines caps mining/rules jobs running at once; excess
	// requests are rejected with 429 Too Many Requests and a
	// Retry-After header. 0 means GOMAXPROCS.
	MaxConcurrentMines int

	// MaxMineDuration is the hard server-side deadline for one mining
	// job. Requests may lower (never raise) it via timeout_ms. A job
	// that hits the deadline is aborted with 504. 0 means
	// DefaultMaxMineDuration.
	MaxMineDuration time.Duration

	// MaxBodyBytes caps request bodies; larger bodies are rejected with
	// 413. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// MaxParallel is the ceiling on per-request mining parallelism:
	// requests may ask for worker goroutines via the mine request's
	// "parallel" field, capped at this value — like timeout_ms, a
	// request can spend less than the ceiling, never more. 0 means
	// GOMAXPROCS.
	MaxParallel int

	// CacheBudgetBytes caps the resident bytes of memoized mine
	// results. 0 means DefaultCacheBudgetBytes; a negative value
	// disables result caching and single-flight deduplication entirely.
	CacheBudgetBytes int64

	// Persist, when non-nil, makes datasets durable: the server seeds
	// its store from the recovered state (restoring the version counter
	// so cache keys and ETags never repeat across restarts) and commits
	// every mutation to the write-ahead log before making it visible.
	// The caller owns the store's lifecycle (open it before the server,
	// Close it after shutdown to flush and cut a final snapshot).
	Persist *persist.Store

	// BreakerFailureThreshold is the weighted failure score at which the
	// resilient journal trips into read-only degraded mode (permanent
	// failures such as ENOSPC count double). 0 means the journal's
	// default, defaultBreakerThreshold (3). Only meaningful with Persist.
	BreakerFailureThreshold int

	// RecoveryProbeInterval is how often, while degraded, the background
	// prober asks the persist store to prove it can write again; the
	// first success restores read-write automatically. 0 means 1s.
	RecoveryProbeInterval time.Duration

	// Shards is the target number of mining shards per dataset: each
	// whole-dataset mine splits the dataset's snapshot into at most this
	// many, and fans out across them when it gets two or more
	// (internal/shard); results, cache keys, and ETags are identical to
	// unsharded mining. 0 means GOMAXPROCS; 1 disables sharding.
	Shards int

	// ShardMinSeqs floors the average sequences per shard, capping the
	// effective shard count on small datasets. 0 means
	// DefaultShardMinSeqs.
	ShardMinSeqs int

	// IngestFlushCount is the batch size of the streaming ingest route:
	// buffered events become a versioned append once this many are
	// pending. 0 means DefaultIngestFlushCount.
	IngestFlushCount int

	// IngestFlushAge bounds how long a partial ingest batch may wait for
	// more events before it is appended anyway. 0 means
	// DefaultIngestFlushAge.
	IngestFlushAge time.Duration

	// JobDebounce is the default quiet period a continuous-mining job
	// waits after a dataset change before re-mining (jobs may set their
	// own debounce_ms). 0 means jobs.DefaultDebounce.
	JobDebounce time.Duration

	// SSESubscriberQueue is the per-subscriber event queue capacity on
	// job streams; a subscriber that falls this far behind is dropped and
	// must resume via Last-Event-ID. 0 means jobs.DefaultQueueSize.
	SSESubscriberQueue int

	// SSEHeartbeat is the idle-comment cadence on job event streams. 0
	// means DefaultSSEHeartbeat.
	SSEHeartbeat time.Duration

	// Workers lists remote worker base URLs ("http://host:9090"). When
	// set, whole-dataset mines of multi-shard datasets scatter their
	// shards across these processes (with exact local failover); empty
	// keeps all mining in-process.
	Workers []string

	// WorkerProbeInterval is the worker health-probe cadence. 0 means
	// remote.DefaultProbeInterval; negative disables background probing
	// (workers are still demoted on failed RPCs).
	WorkerProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrentMines <= 0 {
		c.MaxConcurrentMines = runtime.GOMAXPROCS(0)
	}
	if c.MaxMineDuration <= 0 {
		c.MaxMineDuration = DefaultMaxMineDuration
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = runtime.GOMAXPROCS(0)
	}
	if c.CacheBudgetBytes == 0 {
		c.CacheBudgetBytes = DefaultCacheBudgetBytes
	}
	if c.BreakerFailureThreshold <= 0 {
		c.BreakerFailureThreshold = defaultBreakerThreshold
	}
	if c.RecoveryProbeInterval <= 0 {
		c.RecoveryProbeInterval = time.Second
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.ShardMinSeqs <= 0 {
		c.ShardMinSeqs = DefaultShardMinSeqs
	}
	if c.IngestFlushCount <= 0 {
		c.IngestFlushCount = DefaultIngestFlushCount
	}
	if c.IngestFlushAge <= 0 {
		c.IngestFlushAge = DefaultIngestFlushAge
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = DefaultSSEHeartbeat
	}
	return c
}

// Server is the HTTP mining service. Create with New or NewWithConfig,
// mount via Handler.
type Server struct {
	store  *datasetStore
	logger *slog.Logger
	cfg    Config

	// results memoizes complete mine responses and coalesces
	// concurrent identical requests. nil when disabled by config.
	results *cache.Cache

	// reg and met are the server's metrics registry (served at
	// GET /v1/metrics) and the typed handles into it.
	reg *obs.Registry
	met *serverMetrics

	// journal wraps the persist store's journal and owns degraded
	// mode: the failure score, the episode and its recovery probe. nil
	// without persistence.
	journal *resilientJournal

	// jobMgr owns the continuous-mining jobs (/v1/jobs); it mines
	// through the server's cached path and journals through the store.
	jobMgr *jobs.Manager

	// ingest buffers streaming NDJSON events per dataset and flushes
	// them as versioned appends (by count or by age).
	ingest *ingestPool

	// pool owns the remote worker fleet (worker health and its probes,
	// push state, failover) when cfg.Workers is set. nil means all-local
	// mining.
	pool *remote.Pool

	// mineSem bounds concurrent mining jobs. Admission is deadline-
	// aware: a request parks only while a slot could still free up
	// before its deadline, and is shed with 429 otherwise.
	mineSem chan struct{}
	// reqSeq numbers generated request IDs.
	reqSeq atomic.Uint64

	// testMineHook, when set by a test, runs inside the mine compute
	// after the semaphore slot is claimed — the hook point for failure
	// injection (panics mid-job) and for holding a mine open.
	testMineHook func()
}

// New creates an empty server with default resource bounds. logger may
// be nil (logging disabled).
func New(logger *slog.Logger) *Server {
	return NewWithConfig(logger, Config{})
}

// NewWithConfig creates an empty server with explicit resource bounds.
// logger may be nil (logging disabled).
func NewWithConfig(logger *slog.Logger, cfg Config) *Server {
	if logger == nil {
		logger = obs.Discard()
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	met := newServerMetrics(reg)
	s := &Server{
		store:   newDatasetStore(),
		logger:  logger,
		cfg:     cfg,
		reg:     reg,
		met:     met,
		mineSem: make(chan struct{}, cfg.MaxConcurrentMines),
	}
	s.store.onCommit = s.datasetCommitted
	if cfg.CacheBudgetBytes > 0 {
		s.results = cache.New(cfg.CacheBudgetBytes, met.cache)
	}
	if cfg.Persist != nil {
		// Seed before attaching the journal: recovered datasets are
		// already durable and must not be re-logged.
		s.store.restore(cfg.Persist.Recovered())
		s.journal = newResilientJournal(cfg.Persist, cfg.BreakerFailureThreshold,
			cfg.RecoveryProbeInterval, met.resilience, logger)
		s.store.journal = s.journal
		cfg.Persist.SetMetrics(met.persist)
	}
	if len(cfg.Workers) > 0 {
		s.pool = remote.NewPool(cfg.Workers, cfg.WorkerProbeInterval, remote.ClientOptions{Metrics: met.remote}, logger)
	}
	s.ingest = &ingestPool{s: s, batchers: make(map[string]*ingestBatcher)}
	jm, err := jobs.New(jobs.Config{
		Runner:    jobRunner{s},
		Journal:   s.store,
		Logger:    logger,
		Metrics:   met.jobs,
		Debounce:  cfg.JobDebounce,
		QueueSize: cfg.SSESubscriberQueue,
	})
	if err != nil { // unreachable: runner and journal are always set
		panic("server: jobs manager: " + err.Error())
	}
	s.jobMgr = jm
	if cfg.Persist != nil {
		// Restore journaled jobs after datasets, so the catch-up run each
		// restored job arms can see its dataset.
		recovered := cfg.Persist.RecoveredJobs()
		stored := make([]jobs.StoredJob, 0, len(recovered))
		for id, js := range recovered {
			stored = append(stored, jobs.StoredJob{ID: id, Spec: js.Spec, Result: js.Result})
		}
		s.jobMgr.Restore(stored)
	}
	return s
}

// Close stops the server's background work: pending ingest batches are
// flushed (acknowledged events must not vanish on a graceful shutdown),
// every job run loop stops and its subscribers disconnect, and the
// recovery prober exits. It does not close the persist store — the
// caller owns that lifecycle. Safe to call more than once.
func (s *Server) Close() {
	if s.ingest != nil {
		s.ingest.close()
	}
	if s.jobMgr != nil {
		s.jobMgr.Close()
	}
	if s.journal != nil {
		s.journal.close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
}

// degraded reports whether persistence is currently unavailable and the
// server is refusing mutations (read-only degraded mode).
func (s *Server) degraded() bool {
	return s.journal != nil && s.journal.degraded()
}

// Registry returns the server's metrics registry, the same one Handler
// serves at GET /v1/metrics. Embedders may register their own metrics
// on it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// RouteInfo describes one route of the HTTP surface. The route table is
// the single source of truth: the mux is built from it, GET /v1/routes
// serves it verbatim as the machine-readable API contract, and the
// README route-contract test asserts against that endpoint.
type RouteInfo struct {
	Method  string `json:"method"`
	Pattern string `json:"pattern"` // path under /v1
	Summary string `json:"summary"`
}

var routeTable = []RouteInfo{
	{Method: "GET", Pattern: "/healthz", Summary: "liveness probe (200 even while degraded)"},
	{Method: "GET", Pattern: "/readyz", Summary: "readiness probe (503 while persistence is degraded)"},
	{Method: "GET", Pattern: "/metrics", Summary: "Prometheus text exposition"},
	{Method: "GET", Pattern: "/routes", Summary: "this machine-readable route table"},
	{Method: "GET", Pattern: "/datasets", Summary: "list datasets with summaries"},
	{Method: "PUT", Pattern: "/datasets/{name}", Summary: "create or replace a dataset (csv, lines, or json body)"},
	{Method: "GET", Pattern: "/datasets/{name}", Summary: "dataset summary (ETag, 304)"},
	{Method: "DELETE", Pattern: "/datasets/{name}", Summary: "delete a dataset"},
	{Method: "POST", Pattern: "/datasets/{name}/append", Summary: "append sequences (same body formats as PUT)"},
	{Method: "POST", Pattern: "/datasets/{name}/events", Summary: "stream NDJSON event intervals; batched into versioned appends"},
	{Method: "GET", Pattern: "/datasets/{name}/shards", Summary: "shard layout: per-shard load, skew, assigned worker, push state"},
	{Method: "POST", Pattern: "/datasets/{name}/mine", Summary: "mine patterns; mode temporal, coincidence, or rules (ETag, 304)"},
	{Method: "POST", Pattern: "/jobs", Summary: "create a continuous-mining job"},
	{Method: "GET", Pattern: "/jobs", Summary: "list jobs"},
	{Method: "GET", Pattern: "/jobs/{id}", Summary: "job status"},
	{Method: "DELETE", Pattern: "/jobs/{id}", Summary: "delete a job"},
	{Method: "GET", Pattern: "/jobs/{id}/result", Summary: "latest job result (ETag, 304)"},
	{Method: "GET", Pattern: "/jobs/{id}/events", Summary: "job delta stream (Server-Sent Events, Last-Event-ID resume)"},
}

// Routes returns the canonical route list as "METHOD /v1/path" strings,
// one per served route. Tooling walks it.
func Routes() []string {
	out := make([]string, len(routeTable))
	for i, rt := range routeTable {
		out[i] = rt.Method + " /v1" + rt.Pattern
	}
	return out
}

// RouteTable returns a copy of the route metadata behind GET /v1/routes.
func RouteTable() []RouteInfo {
	out := make([]RouteInfo, len(routeTable))
	copy(out, routeTable)
	return out
}

// handleRoutes serves the machine-readable API contract.
func (s *Server) handleRoutes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"routes": routeTable})
}

// Handler returns the route table, every route under /v1, wrapped in
// the request-ID, panic-recovery, and metrics middleware.
func (s *Server) Handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"GET /healthz":                 s.handleHealthz,
		"GET /readyz":                  s.handleReadyz,
		"GET /metrics":                 s.reg.Handler().ServeHTTP,
		"GET /routes":                  s.handleRoutes,
		"GET /datasets":                s.handleList,
		"PUT /datasets/{name}":         s.handlePut,
		"GET /datasets/{name}":         s.handleGet,
		"DELETE /datasets/{name}":      s.handleDelete,
		"POST /datasets/{name}/append": s.handleAppend,
		"POST /datasets/{name}/events": s.handleIngest,
		"GET /datasets/{name}/shards":  s.handleShards,
		"POST /datasets/{name}/mine":   s.handleMine,
		"POST /jobs":                   s.handleJobCreate,
		"GET /jobs":                    s.handleJobList,
		"GET /jobs/{id}":               s.handleJobGet,
		"DELETE /jobs/{id}":            s.handleJobDelete,
		"GET /jobs/{id}/result":        s.handleJobResult,
		"GET /jobs/{id}/events":        s.handleJobEvents,
	}
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		key := rt.Method + " " + rt.Pattern
		h, ok := handlers[key]
		if !ok {
			panic("server: route without handler: " + key)
		}
		mux.HandleFunc(rt.Method+" /v1"+rt.Pattern, labeled(rt.Pattern, h))
	}
	return s.middleware(mux)
}

// labeled tags every request the mux routes to h with the route's
// table pattern, the bounded-cardinality route label the middleware
// records metrics and logs under. Requests the mux routes to no handler
// (404, 405) keep the label "other".
func labeled(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = route
		}
		h(w, r)
	}
}

// ctxKey keys middleware values in the request context.
type ctxKey int

const requestIDKey ctxKey = iota

// requestID returns the request's ID, or "" outside the middleware.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey).(string)
	return id
}

// middleware assigns every request an ID (honoring a client-supplied
// X-Request-ID), converts handler panics into structured 500s, and
// records the per-request metrics and the structured access log. The ID
// is set on the response header before the handler runs, so even error
// and panic responses carry it.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, id))

		sw := &statusWriter{ResponseWriter: w, route: "other"}
		start := time.Now()
		s.met.inFlight.Inc()
		defer func() {
			if p := recover(); p != nil {
				s.logger.Error("panic recovered",
					"request_id", id, "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				// If the handler already started the response this
				// write is a no-op on the status; the log above is the
				// record either way.
				s.writeError(sw, r, errInternal)
			}
			s.met.inFlight.Dec()
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			route := sw.route
			dur := time.Since(start)
			s.met.reqTotal.With(route, statusClass(status)).Inc()
			s.met.reqDur.With(route).Observe(dur.Seconds())
			s.met.reqBytes.With(route).Add(uint64(sw.bytes))
			if status == http.StatusTooManyRequests {
				s.met.throttled.Inc()
			}
			s.logger.Info("request",
				"request_id", id, "method", r.Method, "route", route,
				"path", r.URL.Path, "status", status,
				"duration_ms", dur.Milliseconds(), "bytes", sw.bytes)
		}()
		next.ServeHTTP(sw, r)
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Error("encode response failed", "error", err)
	}
}

// errShuttingDown refuses work once Close has begun: the ingest pool
// and its batchers return it, and the jobs manager's jobs.ErrClosed is
// the same class.
var errShuttingDown = errors.New("server is shutting down")

// errInternal marks a fault of the server rather than the request: a
// recovered panic, or a connection that cannot stream.
var errInternal = errors.New("internal server error")

// writeError sends err as the uniform error envelope. It is the one
// mapping from errors to responses: the error's class sets the status,
// the stable code, the Retry-After hint, and the message where the
// error's own text would not help the client. An error of no known class
// is the request's fault: 400 invalid_request, naming the field of an
// *api.FieldError.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code, msg, field := http.StatusBadRequest, "invalid_request", err.Error(), ""
	var (
		mbe *http.MaxBytesError
		mte *mediaTypeError
		je  *journalError
		fe  *api.FieldError
	)
	switch {
	case errors.As(err, &mbe): // first, so "too large" is never reported as "malformed"
		status, code, msg = http.StatusRequestEntityTooLarge, "payload_too_large", fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)
	case errors.As(err, &mte):
		status, code = http.StatusUnsupportedMediaType, "unsupported_media_type"
	case errors.Is(err, errNotFound):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, jobs.ErrNotFound):
		status, code, msg = http.StatusNotFound, "not_found", fmt.Sprintf("job %q not found", r.PathValue("id"))
	case errors.Is(err, jobs.ErrExists):
		status, code = http.StatusConflict, "conflict"
	case errors.Is(err, errMineBusy):
		status, code, msg = http.StatusTooManyRequests, "rate_limited", fmt.Sprintf("all %d mining slots busy; retry later", cap(s.mineSem))
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	case errors.Is(err, errDegraded): // before *journalError, which wraps it: retry later, here
		status, code = http.StatusServiceUnavailable, "degraded"
		msg = "persistence degraded: mutations are temporarily rejected while the store recovers; reads and mining remain available"
		w.Header().Set("Retry-After", strconv.Itoa(s.degradedRetryAfterSeconds()))
	case errors.As(err, &je): // the mutation was vetoed to protect durability
		status, code = http.StatusInternalServerError, "persist_unavailable"
	case errors.Is(err, cache.ErrComputeAborted):
		status, code, msg = http.StatusInternalServerError, "internal", "mining aborted; see server logs"
	case errors.Is(err, errInternal):
		status, code = http.StatusInternalServerError, "internal"
	case errors.Is(err, errShuttingDown), errors.Is(err, jobs.ErrClosed): // no Retry-After: this process will not serve it
		status, code, msg = http.StatusServiceUnavailable, "shutting_down", errShuttingDown.Error()
	case errors.Is(err, context.DeadlineExceeded):
		status, code, msg = http.StatusGatewayTimeout, "deadline_exceeded", "mining exceeded its deadline; lower min support, add constraints, or raise timeout_ms"
	case errors.Is(err, context.Canceled): // the client went away; there is nobody to respond to
		s.logger.Info("request abandoned by client",
			"request_id", requestID(r), "method", r.Method, "path", r.URL.Path)
		return
	case errors.As(err, &fe):
		field = fe.Field
	}
	id := requestID(r)
	if status >= 500 || status == http.StatusTooManyRequests {
		s.logger.Warn("request failed",
			"request_id", id, "method", r.Method, "path", r.URL.Path,
			"status", status, "code", code, "error", err.Error())
	}
	s.writeJSON(w, status, ErrorEnvelope{
		Error:     ErrorDetail{Code: code, Message: msg, Field: field},
		RequestID: id,
	})
}

// degradedRetryAfterSeconds derives the 503 Retry-After hint while
// degraded: recovery needs one probe cycle (RecoveryProbeInterval) plus
// roughly one snapshot write to succeed, clamped like the 429 hint.
func (s *Server) degradedRetryAfterSeconds() int {
	return clampRetryAfter(s.cfg.RecoveryProbeInterval.Seconds() + s.met.persist.SnapshotDuration.Quantile(0.5))
}

// mode names the server's current write capability for health bodies.
func (s *Server) mode() string {
	if s.degraded() {
		return "read_only"
	}
	return "read_write"
}

// handleHealthz is liveness: 200 as long as the process serves HTTP,
// even while degraded — restarting the process would not help, so
// orchestrators must not kill it over disk trouble. The body carries the
// current mode for humans and dashboards.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": s.mode()})
}

// handleReadyz is readiness: 503 while persistence is degraded so load
// balancers can steer mutation traffic away (reads still work; the
// Retry-After hint says when to re-check), 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ready", "mode": "read_write"}
	if s.pool != nil {
		// Worker health is informational: mining fails over to local
		// computation, so a thin (or empty) pool never flips readiness.
		body["workers"] = s.pool.Status()
	}
	if s.degraded() {
		w.Header().Set("Retry-After", strconv.Itoa(s.degradedRetryAfterSeconds()))
		body["status"], body["mode"] = "degraded", "read_only"
		s.writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	s.writeJSON(w, http.StatusOK, body)
}

// DatasetSummary is the wire form of GET /v1/datasets and
// GET /v1/datasets/{name}.
type DatasetSummary struct {
	Name      string  `json:"name"`
	Sequences int     `json:"sequences"`
	Intervals int     `json:"intervals"`
	Symbols   int     `json:"symbols"`
	AvgSeqLen float64 `json:"avg_seq_len"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := s.store.list()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	s.writeJSON(w, http.StatusOK, out)
}

// ShardInfo is one shard's row in the GET /v1/datasets/{name}/shards
// debug view: its slice of the partition and, under a worker pool, the
// worker the next mine would send it to and whether that worker already
// holds this dataset version's payload.
type ShardInfo struct {
	ID        int    `json:"id"`
	Sequences int    `json:"sequences"`
	Load      int64  `json:"load"`
	Worker    string `json:"worker"`
	Pushed    bool   `json:"pushed,omitempty"`
}

// ShardLayout is the wire form of GET /v1/datasets/{name}/shards.
type ShardLayout struct {
	Dataset string      `json:"dataset"`
	Version uint64      `json:"version"`
	Skew    float64     `json:"skew"`
	Shards  []ShardInfo `json:"shards"`
	// Workers reports pool membership; absent without -workers.
	Workers *remote.PoolStatus `json:"workers,omitempty"`
}

// handleShards serves the partition layout of one dataset — the
// operator's view for answering "why is this mine slow / which machine
// owns shard 3 / has the new version been pushed yet". The layout is
// computed from the current snapshot exactly as a whole-dataset mine
// computes it.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db, ver, ok := s.store.snapshot(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("dataset %q %w", name, errNotFound))
		return
	}
	part := s.partition(db)
	out := ShardLayout{Dataset: name, Version: ver, Skew: part.Skew()}
	var placements []remote.ShardPlacement
	if s.pool != nil && part.NumShards() >= 2 {
		// Single-shard datasets mine serially and never fan out, so
		// their one shard is always "local" regardless of the pool.
		placements = s.pool.Placements(name, ver, part.NumShards())
	}
	for i := 0; i < part.NumShards(); i++ {
		si := ShardInfo{ID: i, Sequences: len(part.Seqs(i)), Load: part.Load(i), Worker: "local"}
		if placements != nil {
			si.Worker = placements[i].Worker
			si.Pushed = placements[i].Pushed
		}
		out.Shards = append(out.Shards, si)
	}
	if s.pool != nil {
		st := s.pool.Status()
		out.Workers = &st
	}
	s.writeJSON(w, http.StatusOK, out)
}

// mediaTypeError marks an unsupported Content-Type, mapped to 415 with
// the stable "unsupported_media_type" code — distinct from a malformed
// body (400), and detected before the body is read.
type mediaTypeError struct{ msg string }

func (e *mediaTypeError) Error() string { return e.msg }

// contentType extracts the request's media type, stripping parameters.
func contentType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// requireContentType enforces an endpoint's media type before any of the
// body is read, rejecting mismatches with 415 and the uniform error
// envelope. An absent Content-Type is accepted — the decoder applies the
// endpoint's default.
func (s *Server) requireContentType(w http.ResponseWriter, r *http.Request, want ...string) bool {
	ct := contentType(r)
	if ct == "" {
		return true
	}
	for _, m := range want {
		if strings.EqualFold(ct, m) {
			return true
		}
	}
	s.writeError(w, r, &mediaTypeError{fmt.Sprintf("unsupported Content-Type %q (want %s)", ct, strings.Join(want, " or "))})
	return false
}

// readDatasetBody parses an uploaded dataset according to Content-Type:
// text/csv, application/json, or text/plain (line format; the default).
func (s *Server) readDatasetBody(r *http.Request) (*interval.Database, error) {
	ct := contentType(r)
	switch ct {
	case "text/csv", "application/json", "", "text/plain":
	default:
		// Reject before reading any of the body.
		return nil, &mediaTypeError{fmt.Sprintf(
			"unsupported Content-Type %q (want text/csv, application/json, or text/plain)", ct)}
	}
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	switch ct {
	case "text/csv":
		return dataio.ReadCSV(body)
	case "application/json":
		return dataio.ReadJSON(body)
	default:
		return dataio.ReadLines(body)
	}
}

// datasetCommitted is the store's onCommit hook, run after every
// dataset mutation (PUT, append, ingest flush, DELETE) commits. It drops
// the dataset's cached results — correctness does not depend on it, the
// new version changes every future cache key, but the unreachable
// entries' bytes return to the budget at once — and wakes the jobs
// watching the dataset.
func (s *Server) datasetCommitted(name string, version uint64) {
	if s.results != nil {
		s.results.InvalidateDataset(name)
	}
	s.jobMgr.Notify(name, version)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db, err := s.readDatasetBody(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	sum, ver, existed, err := s.store.put(name, db)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.logger.Info("dataset stored",
		"request_id", requestID(r), "dataset", name, "sequences", db.Len(),
		"version", ver)
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	w.Header().Set("ETag", datasetETag(name, ver))
	s.writeJSON(w, status, sum)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	add, err := s.readDatasetBody(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	sum, ver, err := s.store.append(name, add, false)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("ETag", datasetETag(name, ver))
	s.writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sum, ver, ok := s.store.stat(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("dataset %q %w", name, errNotFound))
		return
	}
	etag := datasetETag(name, ver)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("ETag", etag)
	s.writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.delete(r.PathValue("name")); err != nil {
		s.writeError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------- etags

// resultETag derives the strong ETag of a memoizable result: a digest
// of the dataset name, its version, and the canonical result options.
// Identical ETags guarantee byte-identical complete results, because
// mining is deterministic for a fixed (database, options) pair.
func resultETag(k cache.Key) string {
	h := sha256.New()
	// sha256 writes never fail; discard explicitly for the error linter.
	_, _ = io.WriteString(h, k.Dataset)
	_, _ = h.Write([]byte{0})
	var vb [8]byte
	binary.BigEndian.PutUint64(vb[:], k.Version)
	_, _ = h.Write(vb[:])
	_, _ = io.WriteString(h, k.Options)
	sum := h.Sum(nil)
	return `"` + hex.EncodeToString(sum[:12]) + `"`
}

// datasetETag is the strong ETag of a dataset summary at one version.
func datasetETag(name string, version uint64) string {
	return resultETag(cache.Key{Dataset: name, Version: version, Options: "dataset"})
}

// etagMatches implements If-None-Match comparison against one strong
// ETag: a comma-separated candidate list, "*" wildcard, and W/ prefixes
// (weak comparison degrades to the same bytes for our strong tags).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------- mine slots

// errMineBusy signals that every mining slot was occupied for as long
// as this request could afford to wait; writeError maps it to 429 with
// a Retry-After hint.
var errMineBusy = errors.New("all mining slots busy")

// acquireMineSlot claims a slot from the mining semaphore with
// deadline-aware admission: a free slot is taken immediately; otherwise
// the request parks only as long as a slot could still free up in time
// (parkBudget), and is shed with errMineBusy when that budget is zero or
// runs out — no point queueing work whose deadline will expire before it
// can start. ctx is the job context from mineContext, whose deadline is
// the request's effective one, so a parked request unblocks when its
// deadline passes or (with caching disabled) its client disconnects.
// The caller must invoke release when done.
func (s *Server) acquireMineSlot(ctx context.Context) (release func(), err error) {
	select {
	case s.mineSem <- struct{}{}:
		return func() { <-s.mineSem }, nil
	default:
	}
	if wait := s.parkBudget(ctx); wait > 0 {
		pctx, cancel := context.WithTimeout(ctx, wait)
		defer cancel()
		select {
		case s.mineSem <- struct{}{}:
			return func() { <-s.mineSem }, nil
		case <-pctx.Done():
		}
	}
	// A disconnecting client propagates as Canceled. Anything else —
	// the park budget or the job deadline running out while still
	// queued — is a shed (429, retryable), not a mining timeout (504):
	// no work was started.
	if errors.Is(ctx.Err(), context.Canceled) {
		return nil, ctx.Err()
	}
	s.met.resilience.shed.Inc()
	return nil, errMineBusy
}

// parkBudget is how long a request may wait for a mining slot before it
// should be shed: the time left to its job context's deadline minus the
// median job duration — once less than a typical job's runtime remains,
// getting a slot no longer helps, the job would only burn a slot and 504
// anyway.
func (s *Server) parkBudget(ctx context.Context) time.Duration {
	dl, _ := ctx.Deadline() // mineContext always sets one
	median := time.Duration(s.met.mineDur.Quantile(0.5) * float64(time.Second))
	return time.Until(dl) - median
}

// Bounds on the derived Retry-After hint: at least one second (clients
// should never hot-loop), at most thirty (mining slots churn within the
// 60s default deadline; suggesting more than half a minute just parks
// well-behaved clients).
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 30
)

// retryAfterSeconds derives the 429 Retry-After hint from the observed
// mine-duration histogram: the median job duration is how long a busy
// slot typically takes to free up. With no completed jobs yet it falls
// back to the floor, and it never suggests more than the server's own
// deadline — a slot is guaranteed free by then.
func (s *Server) retryAfterSeconds() int {
	est := s.met.mineDur.Quantile(0.5)
	if limit := math.Floor(s.cfg.MaxMineDuration.Seconds()); limit >= minRetryAfterSeconds {
		est = min(est, limit)
	}
	return clampRetryAfter(est)
}

// clampRetryAfter rounds an estimate in seconds up to a Retry-After
// hint within [minRetryAfterSeconds, maxRetryAfterSeconds].
func clampRetryAfter(est float64) int {
	return int(min(max(math.Ceil(est), minRetryAfterSeconds), maxRetryAfterSeconds))
}

// mineContext derives the mining context for one job, bounded by the
// server ceiling and lowered further by a per-request timeout_ms if
// given. base is the requester's context — an HTTP request's or a
// continuous job's. With result caching enabled the context is detached
// from the requester's cancellation: the run's result may fan out to
// coalesced waiters and into the cache, so one disconnecting client
// must not abort work others are (or will be) waiting on. The deadline
// still applies either way.
func (s *Server) mineContext(base context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	if s.results != nil {
		base = context.WithoutCancel(base)
	}
	d := s.cfg.MaxMineDuration
	if timeoutMillis > 0 {
		d = min(d, time.Duration(timeoutMillis)*time.Millisecond)
	}
	return context.WithTimeout(base, d)
}

// ----------------------------------------------------------- wire types

// The request shape of the mine family lives in internal/api, shared
// with the jobs subsystem: one struct with an explicit "mode" field
// ("temporal", "coincidence", or "rules"). So does the error envelope,
// which the worker role writes too.
type (
	MiningOptions = api.MiningOptions
	MineSpec      = api.MineSpec
	ErrorDetail   = api.ErrorDetail
	ErrorEnvelope = api.ErrorEnvelope
)

// MinedPattern is one result row of the mine endpoint.
type MinedPattern struct {
	Support   int    `json:"support"`
	Pattern   string `json:"pattern"`
	Relations string `json:"relations,omitempty"`
}

// MineResponse is the body returned by the mine endpoint.
type MineResponse struct {
	Dataset  string         `json:"dataset"`
	Type     string         `json:"type"`
	Count    int            `json:"count"`
	Patterns []MinedPattern `json:"patterns"`
	Stats    MineStats      `json:"stats"`
	// Cache says how this response was served: "hit" (from cache),
	// "miss" (this request ran the miner), or "coalesced" (an identical
	// concurrent request ran it; this one shared the result). Empty when
	// caching is disabled.
	Cache string `json:"cache,omitempty"`
}

// MineStats is the wire form of the search counters: the full pruning
// breakdown (P1 items_removed, P2 pair_pruned, P3 postfix_pruned, P4
// size_pruned) and, on parallel runs, the work-stealing scheduler's
// counters.
type MineStats struct {
	Sequences      int   `json:"sequences"`
	MinCount       int   `json:"min_count"`
	Nodes          int64 `json:"nodes"`
	Emitted        int64 `json:"emitted"`
	CandidateScans int64 `json:"candidate_scans"`
	ItemsRemoved   int   `json:"items_removed"`  // P1
	PairPruned     int64 `json:"pair_pruned"`    // P2
	PostfixPruned  int64 `json:"postfix_pruned"` // P3
	SizePruned     int64 `json:"size_pruned"`    // P4
	// Scheduler counters, present only on parallel runs.
	JobsSpawned   int64 `json:"jobs_spawned,omitempty"`
	StealsTaken   int64 `json:"steals_taken,omitempty"`
	MaxQueueDepth int64 `json:"max_queue_depth,omitempty"`
	// ElapsedMillis is the run's wall time in integer milliseconds.
	ElapsedMillis int64 `json:"elapsed_ms"`
	// Truncated marks a run cut short by a soft budget; TruncatedBy is
	// "max_patterns" or "time_budget".
	Truncated   bool   `json:"truncated,omitempty"`
	TruncatedBy string `json:"truncated_by,omitempty"`
}

// recordMineRun folds one finished mining job into the metrics: its
// outcome (by pattern type), truncation cause, duration, and the
// search's own counters. Called for every job that ran, successful or
// not.
func (s *Server) recordMineRun(ptype string, st core.Stats, dur time.Duration, err error) {
	outcome := "ok"
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		outcome = "deadline"
		s.met.mineDeadline.Inc()
	case errors.Is(err, context.Canceled):
		outcome = "canceled"
	case err != nil:
		outcome = "invalid"
	case st.Truncated:
		outcome = "truncated"
	}
	s.met.mineRuns.With(ptype, outcome).Inc()
	if st.Truncated && st.TruncatedBy != "" {
		s.met.mineTruncated.With(st.TruncatedBy).Inc()
	}
	s.met.mineDur.Observe(dur.Seconds())
	s.met.recordMinerStats(st)
}

// mineEntry is one mine result as the cache holds it: the response
// encoded once, plus what a job run needs from each row. Hits,
// coalesced waiters and job runs all share one entry, so nothing may
// write to it once runMine returns.
type mineEntry struct {
	// body is the response as the handler sends it, minus the per-request
	// "cache" field and the trailing newline: a MineResponse object in
	// the pattern modes, a []WireRule array in rules mode.
	body []byte
	// rows has one element per pattern row, nil in rules mode and
	// non-nil when empty (a job result encodes it as []). Each Body is a
	// sub-slice of body holding exactly json.Marshal of the row.
	rows []jobs.Pattern
	// complete reports whether the result is the full deterministic
	// answer for (dataset version, options); truncated results are never
	// cached and carry no ETag.
	complete bool
}

// size is the entry's resident cost for the cache budget: its bytes,
// plus each row's key and fixed-size header.
func (e *mineEntry) size() int64 {
	n := int64(len(e.body))
	for _, r := range e.rows {
		n += int64(len(r.Key)) + int64(unsafe.Sizeof(r))
	}
	return n
}

// encodePatterns encodes a pattern-mode response once. The envelope is
// resp with nil Patterns, rendered from MineResponse's own struct tags;
// when there are rows, one json.Encoder writes them where
// "patterns":null stands, and each row's span becomes its job body.
// resp.Cache must be empty: it is spliced in per request.
func encodePatterns(resp MineResponse, rows []MinedPattern) (*mineEntry, error) {
	env, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	e := &mineEntry{body: env, rows: make([]jobs.Pattern, len(rows)), complete: !resp.Stats.Truncated}
	if len(rows) == 0 {
		return e, nil
	}
	// The dataset name is the only string before the slot, and an
	// encoded string never holds an unescaped quote, so the first match
	// is the field itself.
	at := bytes.Index(env, []byte(`"patterns":null`)) + len(`"patterns":`)
	grow := len(env)
	for _, mp := range rows {
		grow += len(mp.Pattern) + len(mp.Relations) + 48 // field names, support, punctuation
	}
	buf := bytes.NewBuffer(append(append(make([]byte, 0, grow), env[:at]...), '['))
	enc := json.NewEncoder(buf)
	ends := make([]int, len(rows))
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return nil, err
		}
		ends[i] = buf.Len() - 1 // Encode's newline, which becomes the separator
	}
	body := buf.Bytes()
	for _, end := range ends {
		body[end] = ','
	}
	body[ends[len(ends)-1]] = ']'
	e.body = append(body, env[at+len("null"):]...)
	start := at + 1
	for i, mp := range rows {
		e.rows[i] = jobs.Pattern{Key: minedPatternKey(mp), Support: mp.Support, Body: e.body[start:ends[i]:ends[i]]}
		start = ends[i] + 1
	}
	return e, nil
}

// writeMineBody sends an entry's body with 200. A non-empty outcome is
// spliced in as the "cache" field: it is MineResponse's last field and
// omitempty, so replacing the closing brace with `,"cache":"<outcome>"}`
// gives the bytes encoding/json would write with the field set. The
// stored body is shared by concurrent hits, so it is written as it is
// and never appended to.
func (s *Server) writeMineBody(w http.ResponseWriter, body []byte, outcome cache.Outcome) {
	tail := "\n"
	if outcome != "" {
		body = body[:len(body)-1]
		tail = `,"cache":"` + string(outcome) + "\"}\n"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+len(tail)))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(body)
	if err == nil {
		_, err = io.WriteString(w, tail)
	}
	if err != nil {
		s.logger.Error("write response failed", "error", err)
	}
}

// handleMine is the one handler behind the mine family: temporal,
// coincidence, and rules mining, whole-dataset or windowed, cached and
// coalesced identically.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if !s.requireContentType(w, r, "application/json") {
		return
	}
	name := r.PathValue("name")
	var spec MineSpec
	if err := s.decodeJSONBody(r, &spec); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, r, err)
		return
	}
	db, ver, ok := s.store.snapshot(name)
	if !ok {
		s.writeError(w, r, fmt.Errorf("dataset %q %w", name, errNotFound))
		return
	}

	key := cache.Key{Dataset: name, Version: ver, Options: spec.ResultOptions(), Exec: spec.ExecOptions()}
	etag := resultETag(key)
	// A matching If-None-Match short-circuits before any mining: the
	// version in the ETag proves the dataset has not changed, and
	// complete results are deterministic.
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	e, outcome, err := s.cachedMine(r.Context(), key, db, spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if outcome != "" {
		w.Header().Set("X-Cache", string(outcome))
	}
	if e.complete {
		w.Header().Set("ETag", etag)
	}
	if spec.Mode == api.ModeRules {
		outcome = "" // a rules body is a bare array: it has no cache field
	}
	s.writeMineBody(w, e.body, outcome)
}

// cachedMine runs spec over db, the dataset snapshot at the version key
// names, through the result cache: it mines under key in the
// single-flight cache.Do (or directly with caching disabled). The mine
// handler and continuous job runs both call it, so a job run and an
// identical batch mine share one cache entry and one miner execution.
// A hit served while degraded is also counted as a degraded hit.
// outcome is "" with caching disabled.
func (s *Server) cachedMine(ctx context.Context, key cache.Key, db *interval.Database, spec MineSpec) (*mineEntry, cache.Outcome, error) {
	if s.results == nil {
		e, err := s.runMine(ctx, key, db, spec)
		return e, "", err
	}
	v, outcome, err := s.results.Do(ctx, key, func() (any, int64, bool, error) {
		e, err := s.runMine(ctx, key, db, spec)
		if err != nil {
			return nil, 0, false, err
		}
		return e, e.size(), e.complete, nil
	})
	if err != nil {
		return nil, outcome, err
	}
	if outcome == cache.Hit && s.degraded() {
		s.met.degradedHits.Inc()
	}
	return v.(*mineEntry), outcome, nil
}

// windowDatabase slices the window out of db, returning db itself when
// win is empty or covers every sequence. Sequence slice headers are
// shared, never copied — stored databases are immutable. A sliding
// window is the newest Count sequences; a tumbling window is the newest
// complete block of Count sequences (empty until the first block fills).
func windowDatabase(db *interval.Database, win api.WindowSpec) *interval.Database {
	n := len(db.Sequences)
	switch win.Kind {
	case api.WindowSliding:
		if n <= win.Count {
			return db
		}
		return &interval.Database{Sequences: db.Sequences[n-win.Count:]}
	case api.WindowTumbling:
		blocks := n / win.Count
		if blocks == 0 {
			return &interval.Database{}
		}
		start := (blocks - 1) * win.Count
		return &interval.Database{Sequences: db.Sequences[start : start+win.Count]}
	}
	return db
}

// partition splits a dataset snapshot into the server's mining shards
// and sets the skew gauge from the split. The split is a pure function
// of the snapshot and the shard configuration, so a (dataset, version,
// shard) key names the same sequences in every mine and after every
// restart.
func (s *Server) partition(db *interval.Database) *shard.Partition {
	part := shard.New(db, s.cfg.Shards, s.cfg.ShardMinSeqs)
	s.met.shard.skew.Set(part.Skew())
	return part
}

// mineCoordinator returns the coordinator a mine of db runs through;
// snap is the dataset snapshot at the version key names, and db is snap
// or a window of it. A window or a dataset that partitions into one
// shard gets a one-worker coordinator, which hands the request's options
// verbatim to the serial or work-stealing miner and reports no fan-out:
// only fan-outs feed the coordinator's tpmd_shard_* metrics. A whole
// dataset of two or more shards fans out, to remote workers (each
// wrapped in exact local failover) when a pool is configured. Either way
// the merge reproduces the serial miner's results exactly, so routing
// never changes a response, cache entry, or ETag.
func (s *Server) mineCoordinator(key cache.Key, snap, db *interval.Database) *shard.Coordinator {
	if db == snap {
		if part := s.partition(db); part.NumShards() >= 2 {
			var co *shard.Coordinator
			if s.pool != nil {
				co = s.pool.Coordinator(key.Dataset, key.Version, db, part)
			} else {
				co = shard.NewLocal(db, part)
			}
			co.Met = s.met.shard
			return co
		}
	}
	return shard.NewWithWorkers([]shard.Worker{shard.NewLocalWorker(db)}, []int{db.Len()})
}

// runMine executes one mining job end to end: claim a slot (errMineBusy
// when saturated), cut the spec's window out of the snapshot, mine
// through its coordinator under the job context, apply the
// closed/maximal filter, record metrics, and encode the result for the
// spec's mode — pattern rows (a MineResponse) or rules derived from the
// temporal patterns ([]WireRule). base is the requester's context (HTTP
// request or continuous job).
func (s *Server) runMine(base context.Context, key cache.Key, snap *interval.Database, spec MineSpec) (*mineEntry, error) {
	ctx, cancel := s.mineContext(base, spec.TimeoutMillis)
	defer cancel()
	release, err := s.acquireMineSlot(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.testMineHook != nil {
		s.testMineHook()
	}

	mode := cmp.Or(spec.Mode, api.ModeTemporal)
	kind := core.KindTemporal // rules are derived from temporal patterns
	if mode == api.ModeCoincidence {
		kind = core.KindCoincidence
	}
	mineStart := time.Now()
	db := windowDatabase(snap, spec.Window)
	res, err := s.mineCoordinator(key, snap, db).Mine(ctx, kind, spec.TopK, spec.Options(s.cfg.MaxParallel))
	var st core.Stats
	if err == nil {
		st = res.Stats
		err = core.Filter(ctx, res, spec.Filter)
	}
	s.recordMineRun(mode, st, time.Since(mineStart), err)
	if err != nil {
		return nil, err
	}

	if mode == api.ModeRules {
		rs, err := deriveRules(res.Temporal, db, spec)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(rs)
		if err != nil {
			return nil, err
		}
		return &mineEntry{body: body, complete: true}, nil
	}
	rows := make([]MinedPattern, 0, res.Len())
	for _, pr := range res.Temporal {
		rows = append(rows, MinedPattern{
			Support:   pr.Support,
			Pattern:   pr.Pattern.String(),
			Relations: pr.Pattern.RelationSummary(),
		})
	}
	for _, pr := range res.Coinc {
		rows = append(rows, MinedPattern{
			Support: pr.Support,
			Pattern: pr.Pattern.String(),
		})
	}
	return encodePatterns(MineResponse{Dataset: key.Dataset, Type: mode, Count: len(rows), Stats: wireStats(st)}, rows)
}

// WireRule is one derived rule on the wire.
type WireRule struct {
	Antecedent string  `json:"antecedent"`
	Full       string  `json:"full"`
	Relations  string  `json:"relations"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

// deriveRules scores the association rules among mined temporal
// patterns at the spec's confidence and lift thresholds.
func deriveRules(rs []pattern.TemporalResult, db *interval.Database, spec MineSpec) ([]WireRule, error) {
	derived, err := rules.Derive(rs, db, rules.Options{
		MinConfidence: spec.MinConfidence,
		MinLift:       spec.MinLift,
	})
	if err != nil {
		return nil, err
	}
	out := make([]WireRule, len(derived))
	for i, ru := range derived {
		out[i] = WireRule{
			Antecedent: ru.Antecedent.String(),
			Full:       ru.Full.String(),
			Relations:  ru.Full.RelationSummary(),
			Support:    ru.Support,
			Confidence: ru.Confidence,
			Lift:       ru.Lift,
		}
	}
	return out, nil
}

// decodeJSONBody parses a JSON request body strictly (one value, no
// unknown field, nothing after it), tolerating an empty body
// (all-default request).
func (s *Server) decodeJSONBody(r *http.Request, v any) error {
	err := dataio.DecodeJSON(http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes), v)
	switch {
	case errors.Is(err, io.EOF):
		return nil // empty body = defaults
	case err != nil:
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func wireStats(st core.Stats) MineStats {
	return MineStats{
		Sequences:      st.Sequences,
		MinCount:       st.MinCount,
		Nodes:          st.Nodes,
		Emitted:        st.Emitted,
		CandidateScans: st.CandidateScans,
		ItemsRemoved:   st.ItemsRemoved,
		PairPruned:     st.PairPruned,
		PostfixPruned:  st.PostfixPruned,
		SizePruned:     st.SizePruned,
		JobsSpawned:    st.JobsSpawned,
		StealsTaken:    st.StealsTaken,
		MaxQueueDepth:  st.MaxQueueDepth,
		ElapsedMillis:  st.Elapsed.Milliseconds(),
		Truncated:      st.Truncated,
		TruncatedBy:    st.TruncatedBy,
	}
}
