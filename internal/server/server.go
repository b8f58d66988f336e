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
// on validation errors.
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
// With persistence enabled, journal I/O runs behind a circuit breaker
// (internal/resilience): repeated persistence failures trip it open and
// the server degrades to read-only — mutations fail fast with 503,
// stable code "degraded", and a Retry-After hint, while reads, cached
// results, and fresh mines over resident datasets keep serving. A
// background prober periodically asks the store to prove itself again
// (persist.Store.Probe); the first success closes the breaker and
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
// Each stored dataset carries a size-balanced partition of its
// sequences into disjoint shards (internal/shard), computed at mutation
// time so shard IDs stay stable across mines. Every mine — temporal,
// coincidence, or rules, batch or job run — goes through one
// shard.Coordinator over that partition. A single-shard partition mines
// serially inside its one worker with the request's options unchanged.
// With two or more shards the coordinator fans out: every shard runs
// the dense-index miner at a relaxed partition-aware support bound, and
// the coordinator merges per-shard supports exactly, so results — and
// therefore cache keys, ETags, and response bytes — are identical to
// serial mining. The -shards / -shard-min-seqs flags on cmd/tpmd
// (Config.Shards / Config.ShardMinSeqs here) size the partition;
// tpmd_shard_* metrics expose fan-outs, per-shard durations, and
// partition skew.
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
// journal through the same store (and circuit breaker) as datasets,
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
	// persistence circuit breaker trips into read-only degraded mode
	// (permanent failures such as ENOSPC count double). 0 means
	// resilience.DefaultBreakerThreshold. Only meaningful with Persist.
	BreakerFailureThreshold int

	// RecoveryProbeInterval is how often, while degraded, the background
	// prober asks the persist store to prove it can write again; the
	// first success restores read-write automatically. 0 means 1s.
	RecoveryProbeInterval time.Duration

	// Shards is the target number of mining shards per dataset. Mines of
	// datasets holding at least two shards fan out across them
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

	// journal wraps the persist store's journal with the circuit
	// breaker and background recovery probe. nil without persistence.
	journal *resilientJournal

	// jobMgr owns the continuous-mining jobs (/v1/jobs); it mines
	// through the server's cached path and journals through the store.
	jobMgr *jobs.Manager

	// ingest buffers streaming NDJSON events per dataset and flushes
	// them as versioned appends (by count or by age).
	ingest *ingestPool

	// pool owns the remote worker fleet (registry, push tracker, health
	// probes) when cfg.Workers is set. nil means all-local mining.
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
	// Shard config must land before persistence seeding so recovered
	// datasets are partitioned on load.
	s.store.shards = cfg.Shards
	s.store.shardMinSeqs = cfg.ShardMinSeqs
	s.store.onPartition = func(p *shard.Partition) {
		if p != nil {
			met.shard.skew.Set(p.Skew())
		}
	}
	if cfg.CacheBudgetBytes > 0 {
		s.results = cache.New(cfg.CacheBudgetBytes, met.cache)
	}
	if cfg.Persist != nil {
		// Seed before attaching the journal: recovered datasets are
		// already durable and must not be re-logged.
		state, verSeq := cfg.Persist.Recovered()
		for name, ds := range state {
			s.store.load(name, ds.DB, ds.Version)
		}
		s.store.setVersionFloor(verSeq)
		s.journal = newResilientJournal(cfg.Persist, cfg.BreakerFailureThreshold,
			cfg.RecoveryProbeInterval, met.resilience, logger)
		s.store.journal = s.journal
		cfg.Persist.SetMetrics(met.persist)
		if s.results != nil {
			s.results.SetDegraded(s.journal.degraded)
		}
	}
	if len(cfg.Workers) > 0 {
		s.pool = remote.NewPool(cfg.Workers, remote.PoolConfig{
			Registry: remote.RegistryConfig{ProbeInterval: cfg.WorkerProbeInterval},
			Logger:   logger,
			Metrics:  met.remote,
		})
	}
	s.ingest = &ingestPool{s: s, batchers: make(map[string]*ingestBatcher)}
	jm, err := jobs.New(jobs.Config{
		Runner:    jobRunner{s},
		Journal:   jobJournal{s},
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
				s.writeJSON(sw, http.StatusInternalServerError, ErrorEnvelope{
					Error:     ErrorDetail{Code: "internal", Message: "internal server error"},
					RequestID: id,
				})
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

// ErrorDetail is the error object of the uniform JSON error envelope.
type ErrorDetail struct {
	// Code is a stable, machine-readable error class: invalid_request,
	// not_found, payload_too_large, rate_limited, deadline_exceeded, or
	// internal.
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Field names the offending JSON request field on validation errors.
	Field string `json:"field,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx JSON response, on every
// route.
type ErrorEnvelope struct {
	Error     ErrorDetail `json:"error"`
	RequestID string      `json:"request_id,omitempty"`
}

// codeForStatus maps a response status to the envelope's error code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnsupportedMediaType:
		return "unsupported_media_type"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusServiceUnavailable:
		return "degraded"
	default:
		if status >= 500 {
			return "internal"
		}
		return "invalid_request"
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logger.Error("encode response failed", "error", err)
	}
}

// writeError sends the structured error envelope. A body-size overflow
// (http.MaxBytesError anywhere in the chain) overrides the caller's
// status with 413 so clients can tell "too large" from "malformed".
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
		err = fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
	}
	s.writeErrorCode(w, r, status, codeForStatus(status), err)
}

// writeErrorCode is writeError with an explicit envelope code, for the
// few statuses whose code is not a pure function of the status (500
// splits into internal vs persist_unavailable).
func (s *Server) writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	field := ""
	var fe *api.FieldError
	if errors.As(err, &fe) {
		field = fe.Field
	}
	id := requestID(r)
	if status >= 500 || status == http.StatusTooManyRequests {
		s.logger.Warn("request failed",
			"request_id", id, "method", r.Method, "path", r.URL.Path,
			"status", status, "code", code, "error", err.Error())
	}
	s.writeJSON(w, status, ErrorEnvelope{
		Error:     ErrorDetail{Code: code, Message: err.Error(), Field: field},
		RequestID: id,
	})
}

// writeStoreError maps a failed store mutation to a response:
//
//   - breaker open → 503, stable code "degraded", Retry-After derived
//     from the recovery-probe cadence — the client should retry, later,
//     here;
//   - any other journal failure → 500, stable code "persist_unavailable"
//     — the mutation was vetoed to protect durability;
//   - anything else → plain 500 "internal".
func (s *Server) writeStoreError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, errDegraded) {
		w.Header().Set("Retry-After", strconv.Itoa(s.degradedRetryAfterSeconds()))
		s.writeErrorCode(w, r, http.StatusServiceUnavailable, "degraded",
			errors.New("persistence degraded: mutations are temporarily rejected while the store recovers; reads and mining remain available"))
		return
	}
	var je *journalError
	if errors.As(err, &je) {
		s.writeErrorCode(w, r, http.StatusInternalServerError, "persist_unavailable", err)
		return
	}
	s.writeError(w, r, http.StatusInternalServerError, err)
}

// degradedRetryAfterSeconds derives the 503 Retry-After hint while
// degraded: recovery needs one probe cycle (RecoveryProbeInterval) plus
// roughly one snapshot write to succeed, clamped to the same bounds as
// the 429 hint.
func (s *Server) degradedRetryAfterSeconds() int {
	est := s.cfg.RecoveryProbeInterval.Seconds() + s.met.persist.SnapshotDuration.Quantile(0.5)
	secs := int(math.Ceil(est))
	if secs < minRetryAfterSeconds {
		secs = minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
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
// owns shard 3 / has the new version been pushed yet".
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	_, part, ver, ok := s.store.snapshot(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
		return
	}
	out := ShardLayout{Dataset: name, Version: ver}
	if part != nil {
		out.Skew = part.Skew()
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
	s.writeError(w, r, http.StatusUnsupportedMediaType,
		&mediaTypeError{fmt.Sprintf("unsupported Content-Type %q (want %s)", ct, strings.Join(want, " or "))})
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

// writeBodyError maps a failed body parse: unsupported media type → 415,
// anything else (malformed payload, overflow) → 400/413 via writeError.
func (s *Server) writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	var mte *mediaTypeError
	if errors.As(err, &mte) {
		s.writeError(w, r, http.StatusUnsupportedMediaType, err)
		return
	}
	s.writeError(w, r, http.StatusBadRequest, err)
}

// invalidateResults eagerly drops cached results for a mutated dataset.
// Correctness does not depend on it — mutations bump the version, which
// changes every future cache key — but dropping unreachable entries
// returns their bytes to the budget immediately.
func (s *Server) invalidateResults(name string) {
	if s.results != nil {
		s.results.InvalidateDataset(name)
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	db, err := s.readDatasetBody(r)
	if err != nil {
		s.writeBodyError(w, r, err)
		return
	}
	ver, existed, sum, err := s.store.put(name, db)
	if err != nil {
		s.writeStoreError(w, r, err)
		return
	}
	s.invalidateResults(name)
	s.jobMgr.Notify(name, ver)
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
		s.writeBodyError(w, r, err)
		return
	}
	_, ver, sum, found, err := s.store.append(name, add)
	switch {
	case err != nil:
		// Validation failures are the client's fault; journal failures
		// are ours.
		var je *journalError
		if errors.As(err, &je) {
			s.writeStoreError(w, r, err)
		} else {
			s.writeError(w, r, http.StatusBadRequest, err)
		}
		return
	case !found:
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
		return
	}
	s.invalidateResults(name)
	s.jobMgr.Notify(name, ver)
	w.Header().Set("ETag", datasetETag(name, ver))
	s.writeJSON(w, http.StatusOK, sum)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sum, ver, ok := s.store.stat(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
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
	name := r.PathValue("name")
	ver, ok, err := s.store.delete(name)
	if err != nil {
		s.writeStoreError(w, r, err)
		return
	}
	s.invalidateResults(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
		return
	}
	s.jobMgr.Notify(name, ver)
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
// as this request could afford to wait; the handler maps it to 429 with
// a Retry-After hint.
var errMineBusy = errors.New("all mining slots busy")

// acquireMineSlot claims a slot from the mining semaphore with
// deadline-aware admission: a free slot is taken immediately; otherwise
// the request parks only as long as a slot could still free up in time
// (parkBudget), and is shed with errMineBusy when that budget is zero or
// runs out — no point queueing work whose deadline will expire before it
// can start. ctx is the job context from mineContext, so a parked
// request unblocks when its deadline passes or (with caching disabled)
// its client disconnects. The caller must invoke release when done.
func (s *Server) acquireMineSlot(ctx context.Context, timeoutMillis int64) (release func(), err error) {
	select {
	case s.mineSem <- struct{}{}:
		return func() { <-s.mineSem }, nil
	default:
	}
	wait := s.parkBudget(timeoutMillis)
	if wait <= 0 {
		s.met.resilience.shed.Inc()
		return nil, errMineBusy
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case s.mineSem <- struct{}{}:
		return func() { <-s.mineSem }, nil
	case <-timer.C:
		s.met.resilience.shed.Inc()
		return nil, errMineBusy
	case <-ctx.Done():
		// The job deadline expiring while still queued is a shed (429,
		// retryable), not a mining timeout (504): no work was started.
		// A disconnecting client propagates as Canceled.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.met.resilience.shed.Inc()
			return nil, errMineBusy
		}
		return nil, ctx.Err()
	}
}

// parkBudget is how long a request may wait for a mining slot before it
// should be shed: its effective deadline minus the median job duration —
// once less than a typical job's runtime remains, getting a slot no
// longer helps, the job would only burn a slot and 504 anyway.
func (s *Server) parkBudget(timeoutMillis int64) time.Duration {
	d := s.cfg.MaxMineDuration
	if timeoutMillis > 0 {
		if req := time.Duration(timeoutMillis) * time.Millisecond; req < d {
			d = req
		}
	}
	median := time.Duration(s.met.mineDur.Quantile(0.5) * float64(time.Second))
	return d - median
}

// writeBusy sends the 429 backpressure response.
func (s *Server) writeBusy(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.writeError(w, r, http.StatusTooManyRequests,
		fmt.Errorf("all %d mining slots busy; retry later", cap(s.mineSem)))
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
	secs := int(math.Ceil(s.met.mineDur.Quantile(0.5)))
	if secs < minRetryAfterSeconds {
		secs = minRetryAfterSeconds
	}
	if max := int(s.cfg.MaxMineDuration / time.Second); max >= minRetryAfterSeconds && secs > max {
		secs = max
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
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
		if req := time.Duration(timeoutMillis) * time.Millisecond; req < d {
			d = req
		}
	}
	return context.WithTimeout(base, d)
}

// writeMineError maps a mining error to a response: context deadline →
// 504, client gone → nothing to send (logged), anything else → 400.
func (s *Server) writeMineError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusGatewayTimeout,
			errors.New("mining exceeded its deadline; lower min support, add constraints, or raise timeout_ms"))
	case errors.Is(err, context.Canceled):
		// The client went away; there is nobody to respond to.
		s.logger.Info("mine abandoned by client",
			"request_id", requestID(r), "method", r.Method, "path", r.URL.Path)
	default:
		s.writeError(w, r, http.StatusBadRequest, err)
	}
}

// writeComputeError maps the result of a cached/coalesced compute to a
// response, covering the sentinels the cache layer can add on top of
// plain mining errors.
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errMineBusy):
		s.writeBusy(w, r)
	case errors.Is(err, cache.ErrComputeAborted):
		s.writeError(w, r, http.StatusInternalServerError,
			errors.New("mining aborted; see server logs"))
	default:
		s.writeMineError(w, r, err)
	}
}

// ----------------------------------------------------------- wire types

// The request shape of the mine family lives in internal/api, shared
// with the jobs subsystem: one struct with an explicit "mode" field
// ("temporal", "coincidence", or "rules").
type (
	MiningOptions = api.MiningOptions
	MineSpec      = api.MineSpec
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
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if err := spec.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	db, part, ver, ok := s.store.snapshot(name)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
		return
	}

	key := cache.Key{Dataset: name, Version: ver, Options: spec.ResultOptions()}
	etag := resultETag(key)
	// A matching If-None-Match short-circuits before any mining: the
	// version in the ETag proves the dataset has not changed, and
	// complete results are deterministic.
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	e, outcome, err := s.cachedMine(r.Context(), key, db, part, spec)
	if err != nil {
		s.writeComputeError(w, r, err)
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

// cachedMine runs spec over one dataset snapshot through the result
// cache: it cuts the window, builds the mine target, and mines under
// key in the single-flight cache.Do (or directly with caching
// disabled). The mine handler and continuous job runs both call it, so
// a job run and an identical batch mine share one cache entry and one
// miner execution. outcome is "" with caching disabled.
func (s *Server) cachedMine(ctx context.Context, key cache.Key, db *interval.Database, part *shard.Partition, spec MineSpec) (*mineEntry, cache.Outcome, error) {
	tgt := mineTarget{db: db, part: part, name: key.Dataset, ver: key.Version}
	if sub := windowDatabase(db, spec.Window); sub != db {
		tgt.db, tgt.part = sub, nil // no stored partition covers a true sub-window
	}
	if s.results == nil {
		e, err := s.runMine(ctx, tgt, spec)
		return e, "", err
	}
	v, outcome, err := s.results.Do(ctx, key, func() (any, int64, bool, error) {
		e, err := s.runMine(ctx, tgt, spec)
		if err != nil {
			return nil, 0, false, err
		}
		return e, e.size(), e.complete, nil
	})
	if err != nil {
		return nil, outcome, err
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

// mineTarget identifies what one mine runs over: the (possibly
// windowed) database, plus the dataset coordinates that make the
// snapshot content-addressable for remote workers. part is the stored
// partition when db is the dataset's full snapshot and nil for a true
// sub-window, which is not addressable by (name, version) alone.
type mineTarget struct {
	db   *interval.Database
	part *shard.Partition
	name string
	ver  uint64
}

// mineCoordinator returns the coordinator every mine of the target
// runs through. A window or a single-shard dataset gets a one-worker
// coordinator, which hands the request's options verbatim to the
// serial or work-stealing miner and leaves the tpmd_shard_* metrics
// alone: only fan-outs report there. A whole dataset of two or more
// shards fans out, to remote workers (each wrapped in exact local
// failover) when a pool is configured. Either way the merge reproduces
// the serial miner's results exactly, so routing never changes a
// response, cache entry, or ETag.
func (s *Server) mineCoordinator(t mineTarget) *shard.Coordinator {
	if t.part == nil || t.part.NumShards() < 2 {
		return shard.NewWithWorkers([]shard.Worker{shard.NewLocalWorker(t.db)}, []int{t.db.Len()})
	}
	var co *shard.Coordinator
	if s.pool != nil {
		co = s.pool.Coordinator(t.name, t.ver, t.db, t.part)
	} else {
		co = shard.NewLocal(t.db, t.part)
	}
	co.Met = s.met.shard
	return co
}

// runMine executes one mining job end to end: claim a slot (errMineBusy
// when saturated), mine through the target's coordinator under the job
// context, apply the closed/maximal filter, record metrics, and encode
// the result for the spec's mode — pattern rows (a MineResponse) or
// rules derived from the temporal patterns ([]WireRule). base is the
// requester's context (HTTP request or continuous job).
func (s *Server) runMine(base context.Context, tgt mineTarget, spec MineSpec) (*mineEntry, error) {
	ctx, cancel := s.mineContext(base, spec.TimeoutMillis)
	defer cancel()
	release, err := s.acquireMineSlot(ctx, spec.TimeoutMillis)
	if err != nil {
		return nil, err
	}
	defer release()
	if s.testMineHook != nil {
		s.testMineHook()
	}

	mode := cmp.Or(spec.Mode, api.ModeTemporal)
	kind := shard.KindTemporal // rules are derived from temporal patterns
	if mode == api.ModeCoincidence {
		kind = shard.KindCoincidence
	}
	mineStart := time.Now()
	res, err := s.mineCoordinator(tgt).Mine(ctx, kind, spec.TopK, spec.Options(s.cfg.MaxParallel))
	var st core.Stats
	if err == nil {
		st = res.Stats
		err = filterResults(ctx, res, kind, spec.Filter)
	}
	s.recordMineRun(mode, st, time.Since(mineStart), err)
	if err != nil {
		return nil, err
	}

	if mode == api.ModeRules {
		rs, err := deriveRules(res.Temporal, tgt.db, spec)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(rs)
		if err != nil {
			return nil, err
		}
		return &mineEntry{body: body, complete: true}, nil
	}
	rows := make([]MinedPattern, 0, len(res.Temporal)+len(res.Coinc))
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
	return encodePatterns(MineResponse{Dataset: tgt.name, Type: mode, Count: len(rows), Stats: wireStats(st)}, rows)
}

// filterResults applies the request's closed or maximal post-filter to
// a mined response of the given kind in place; the empty filter keeps
// everything.
func filterResults(ctx context.Context, res *shard.MineShardResponse, kind shard.Kind, filter string) (err error) {
	switch {
	case filter == "closed" && kind == shard.KindTemporal:
		res.Temporal, err = core.FilterClosedCtx(ctx, res.Temporal)
	case filter == "maximal" && kind == shard.KindTemporal:
		res.Temporal, err = core.FilterMaximalCtx(ctx, res.Temporal)
	case filter == "closed":
		res.Coinc, err = core.FilterClosedCoincCtx(ctx, res.Coinc)
	case filter == "maximal":
		res.Coinc, err = core.FilterMaximalCoincCtx(ctx, res.Coinc)
	}
	return err
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
