package server

import (
	"net/http"
	"strconv"
	"time"

	"tpminer/internal/cache"
	"tpminer/internal/core"
	"tpminer/internal/jobs"
	"tpminer/internal/obs"
	"tpminer/internal/persist"
	"tpminer/internal/remote"
)

// serverMetrics is the server's instrumentation surface, all registered
// on one obs.Registry served at GET /v1/metrics. newServerMetrics
// registers the groups in a fixed order, the exposition order. The
// server's own groups are registered here; the packages that record
// the others own a Metrics struct of obs handles and register it with
// their NewMetrics, and the server hands the struct to the package:
//
//   - tpmd_http_*: per-route request counters and latency histograms
//     recorded by the middleware for every request — labelled by the
//     route-table pattern — plus in-flight and backpressure (429)
//     counters.
//   - tpmd_cache_* (cache.Metrics): the mine-result cache — hits,
//     misses, coalesced (single-flight) waiters, evictions, and
//     resident bytes.
//   - tpmd_mine_*: mining-job telemetry — runs by type and outcome,
//     truncations by cause, deadline aborts, and the job-duration
//     histogram that also drives the 429 Retry-After hint.
//   - tpmd_miner_*: the search's own counters aggregated across runs —
//     nodes, candidate scans, the paper's P1–P4 prunings, and the
//     work-stealing scheduler's spawn/steal/queue-depth numbers.
//   - tpmd_persist_* (persist.Metrics): the durability subsystem — WAL
//     size and appended records, fsyncs, snapshot count/duration, and
//     the boot-time recovery outcome (duration, records replayed,
//     torn-tail truncations). All zero when the server runs without
//     persistence.
//   - tpmd_blob_* (persist.Metrics): the file store beneath persistence
//     — operations, payload bytes, and errors by operation (put, get,
//     append_write, sync, ...); the backend label is always "file".
//     All zero when the server runs without persistence.
//   - tpmd_resilience_*: the fault-handling layer — persistence retries
//     by operation (registered and fed by persist.Metrics),
//     circuit-breaker state/trips, recovery probes by outcome, requests
//     shed by deadline-aware admission, and total seconds spent in
//     read-only degraded mode.
//   - tpmd_shard_*: sharded mining — fan-outs issued, per-shard mine
//     duration, the most recent partition's load-skew ratio, and
//     patterns merged / support-completed at the coordinator. All zero
//     when every mine runs on one worker. shard.Metrics stays an
//     interface, implemented by shardMetrics, because the benchmark's
//     replay records the coordinator's events with its own sink.
//   - tpmd_remote_* (remote.Metrics): the distributed deployment —
//     worker RPCs by operation and outcome with latency, wire bytes by
//     direction, retries, local failovers, registry health (healthy vs
//     configured workers), and shard pushes with their compressed
//     bytes. All zero when the server runs without -workers.
//   - tpmd_job_* / tpmd_sse_* (jobs.Metrics): continuous mining —
//     resident job count, runs by outcome and their duration, delta
//     events published, live SSE subscribers, events fanned out to
//     them, and slow consumers dropped.
//   - tpmd_ingest_*: streaming ingestion — events accepted, batches
//     flushed into versioned appends, and events rejected (buffer
//     overflow while the store was unavailable, or dropped at
//     shutdown).
type serverMetrics struct {
	reqTotal  *obs.CounterVec // route, class
	reqDur    *obs.HistogramVec
	reqBytes  *obs.CounterVec
	inFlight  *obs.Gauge
	throttled *obs.Counter

	cache *cache.Metrics

	mineRuns      *obs.CounterVec // type, outcome
	mineTruncated *obs.CounterVec // cause
	mineDeadline  *obs.Counter
	mineDur       *obs.Histogram

	minerNodes    *obs.Counter
	minerScans    *obs.Counter
	minerEmitted  *obs.Counter
	minerPruned   *obs.CounterVec // technique: p1..p4
	schedSpawned  *obs.Counter
	schedSteals   *obs.Counter
	schedMaxQueue *obs.Gauge

	persist    *persist.Metrics
	resilience *resilienceMetrics
	shard      *shardMetrics
	remote     *remote.Metrics
	jobs       *jobs.Metrics

	ingestEvents   *obs.Counter
	ingestBatches  *obs.Counter
	ingestRejected *obs.Counter
}

// shardMetrics adapts the obs registry to the shard.Metrics interface;
// the coordinator calls it once per fan-out / shard completion / merge,
// so every method is a handful of atomic updates.
type shardMetrics struct {
	fanouts  *obs.Counter
	shardDur *obs.HistogramVec // shard
	skew     *obs.FloatGauge
	merged   *obs.Counter
	counted  *obs.Counter
}

func (m *shardMetrics) FanOut(shards int) { m.fanouts.Inc() }
func (m *shardMetrics) ShardDone(shard int, d time.Duration) {
	m.shardDur.With(strconv.Itoa(shard)).Observe(d.Seconds())
}
func (m *shardMetrics) Merged(patterns, counted int) {
	m.merged.Add(uint64(patterns))
	m.counted.Add(uint64(counted))
}

// resilienceMetrics covers the fault-handling layer: the circuit breaker
// guarding persistence I/O and the admission controller. Its retries
// family belongs to persist.Metrics, which feeds it.
type resilienceMetrics struct {
	breakerState    *obs.Gauge // 0 closed, 1 open, 2 half-open
	breakerTrips    *obs.Counter
	probes          *obs.CounterVec // outcome: ok, fail
	shed            *obs.Counter
	degradedSeconds *obs.FloatCounter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reqTotal: reg.NewCounterVec("tpmd_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "class"),
		reqDur: reg.NewHistogramVec("tpmd_http_request_duration_seconds",
			"HTTP request latency by route.", nil, "route"),
		reqBytes: reg.NewCounterVec("tpmd_http_response_bytes_total",
			"Response body bytes written, by route.", "route"),
		inFlight: reg.NewGauge("tpmd_http_requests_in_flight",
			"Requests currently being handled."),
		throttled: reg.NewCounter("tpmd_http_throttled_total",
			"Requests rejected with 429 because every mining slot was busy."),

		cache: cache.NewMetrics(reg),

		mineRuns: reg.NewCounterVec("tpmd_mine_runs_total",
			"Mining jobs by pattern type and outcome (ok, truncated, deadline, canceled, invalid).",
			"type", "outcome"),
		mineTruncated: reg.NewCounterVec("tpmd_mine_truncated_total",
			"Mining jobs cut short by a soft budget, by cause.", "cause"),
		mineDeadline: reg.NewCounter("tpmd_mine_deadline_aborts_total",
			"Mining jobs aborted by the hard deadline (504s)."),
		mineDur: reg.NewHistogram("tpmd_mine_duration_seconds",
			"Mining job wall time; the recent shape of this histogram drives the 429 Retry-After hint.", nil),

		minerNodes: reg.NewCounter("tpmd_miner_nodes_total",
			"Search-tree nodes explored across all mining runs."),
		minerScans: reg.NewCounter("tpmd_miner_candidate_scans_total",
			"Projected-sequence scans performed while counting extension candidates."),
		minerEmitted: reg.NewCounter("tpmd_miner_patterns_emitted_total",
			"Patterns emitted by the search before normalization/merging."),
		minerPruned: reg.NewCounterVec("tpmd_miner_pruned_total",
			"Search space cut by the paper's pruning techniques: p1 items removed, p2 pairs, p3 postfixes, p4 undersized projections.",
			"technique"),
		schedSpawned: reg.NewCounter("tpmd_miner_sched_jobs_spawned_total",
			"Subtree jobs offered to the work-stealing queue by parallel runs."),
		schedSteals: reg.NewCounter("tpmd_miner_sched_steals_total",
			"Subtree jobs executed by a worker other than their spawner."),
		schedMaxQueue: reg.NewGauge("tpmd_miner_sched_max_queue_depth",
			"High-water mark of the work-stealing queue across all runs."),

		// persist registers tpmd_persist_*, tpmd_blob_* and, last,
		// tpmd_resilience_retries_total, which opens the resilience
		// group below.
		persist: persist.NewMetrics(reg),

		resilience: &resilienceMetrics{
			breakerState: reg.NewGauge("tpmd_resilience_breaker_state",
				"Persistence circuit-breaker state: 0 closed (healthy), 1 open (degraded), 2 half-open (probing)."),
			breakerTrips: reg.NewCounter("tpmd_resilience_breaker_trips_total",
				"Times the persistence circuit breaker tripped open, entering read-only degraded mode."),
			probes: reg.NewCounterVec("tpmd_resilience_probes_total",
				"Background recovery probes while degraded, by outcome (ok, fail).", "outcome"),
			shed: reg.NewCounter("tpmd_resilience_shed_total",
				"Mine/rules requests shed by deadline-aware admission: their deadline would expire before a slot could free up."),
			degradedSeconds: reg.NewFloatCounter("tpmd_resilience_degraded_seconds_total",
				"Total seconds spent in read-only degraded mode (breaker open or probing)."),
		},

		shard: &shardMetrics{
			fanouts: reg.NewCounter("tpmd_shard_fanout_total",
				"Mine/rules requests fanned out across dataset shards."),
			shardDur: reg.NewHistogramVec("tpmd_shard_mine_duration_seconds",
				"Per-shard mining wall time within a fan-out, by shard index.", nil, "shard"),
			skew: reg.NewFloatGauge("tpmd_shard_skew_ratio",
				"Max/min shard interval-load ratio of the most recently (re)computed partition."),
			merged: reg.NewCounter("tpmd_shard_merged_patterns_total",
				"Patterns produced by coordinator merges of per-shard results."),
			counted: reg.NewCounter("tpmd_shard_counted_patterns_total",
				"Patterns whose support was completed via a per-shard Count round because some shard missed them locally."),
		},
		remote: remote.NewMetrics(reg),
		jobs:   jobs.NewMetrics(reg),

		ingestEvents: reg.NewCounter("tpmd_ingest_events_total",
			"Event intervals flushed into versioned dataset appends by streaming ingestion."),
		ingestBatches: reg.NewCounter("tpmd_ingest_batches_total",
			"Ingest batches flushed (by count, by age, or at shutdown)."),
		ingestRejected: reg.NewCounter("tpmd_ingest_rejected_total",
			"Buffered ingest events dropped because the store stayed unavailable or the server shut down."),
	}
}

// recordMinerStats folds one finished run's search counters into the
// cumulative miner metrics.
func (m *serverMetrics) recordMinerStats(st core.Stats) {
	m.minerNodes.Add(uint64(st.Nodes))
	m.minerScans.Add(uint64(st.CandidateScans))
	m.minerEmitted.Add(uint64(st.Emitted))
	m.minerPruned.With("p1").Add(uint64(st.ItemsRemoved))
	m.minerPruned.With("p2").Add(uint64(st.PairPruned))
	m.minerPruned.With("p3").Add(uint64(st.PostfixPruned))
	m.minerPruned.With("p4").Add(uint64(st.SizePruned))
	m.schedSpawned.Add(uint64(st.JobsSpawned))
	m.schedSteals.Add(uint64(st.StealsTaken))
	m.schedMaxQueue.SetMax(st.MaxQueueDepth)
}

// statusClass buckets a status code into "2xx".."5xx" for the low-
// cardinality class label.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// statusWriter records the status code and body bytes a handler wrote,
// plus the route label the mux's handler set (see labeled), so the
// middleware can label metrics and logs after the fact.
type statusWriter struct {
	http.ResponseWriter
	route  string
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the metrics middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
