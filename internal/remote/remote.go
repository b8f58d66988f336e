// Package remote implements shard.Worker over HTTP: a worker role that
// caches pushed shard databases and mines them on request, a client that
// speaks to it with per-call timeouts and transient-error retry, a
// registry that tracks worker health, and an exact failover path that
// re-mines an unreachable worker's shard on an in-process LocalWorker.
//
// Exactness argument: the unit of distribution is the shard database,
// pushed verbatim (content-addressed by dataset, version, and shard
// index) before any mining request touches it. A worker therefore
// computes exactly what a LocalWorker over the same sub-database would
// compute, and the coordinator's merge — which is already proven
// byte-identical to serial mining for local workers — cannot tell the
// difference. Failover re-runs the same request on a LocalWorker over
// the same sub-database, so a mid-mine worker loss changes latency, not
// results.
package remote

import (
	"errors"
	"fmt"
	"net/url"

	"tpminer/internal/obs"
	"tpminer/internal/resilience"
)

// RPC operation names, used in errors, metrics labels, and fault
// injection schedules.
const (
	OpMine  = "mine"
	OpCount = "count"
	OpPush  = "push"
	OpProbe = "probe"
)

// ShardKey content-addresses one shard of one dataset version. Store
// versions are monotone, so a key names immutable bytes: a worker that
// has (dataset, version, shard) cached never needs a re-push.
type ShardKey struct {
	Dataset string `json:"dataset"`
	Version uint64 `json:"version"`
	Shard   int    `json:"shard"`
}

func (k ShardKey) String() string {
	return fmt.Sprintf("%s@v%d/%d", k.Dataset, k.Version, k.Shard)
}

// path is the worker-side resource path for the shard payload.
func (k ShardKey) path() string {
	return fmt.Sprintf("/v1/worker/shards/%s/%d/%d", url.PathEscape(k.Dataset), k.Version, k.Shard)
}

// RPCError wraps a failed worker RPC with enough context to diagnose it
// (operation, worker address, HTTP status and error code when the worker
// answered at all) and to classify it: Unavailable reports whether the
// failure indicts the worker rather than the request.
type RPCError struct {
	Op     string // mine, count, push, probe
	Worker string // base URL
	Status int    // HTTP status, 0 when no response arrived
	Code   string // worker error-envelope code, "" when none
	Err    error

	// permanent marks failures the retry policy must not retry (4xx,
	// unmarshalable requests); resilience.Classify sees it via Is.
	permanent bool
}

// Is classifies permanent RPC failures for resilience.Classify without
// polluting the error chain or message.
func (e *RPCError) Is(target error) bool {
	return e.permanent && target == resilience.ErrPermanent
}

func (e *RPCError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("remote: %s on %s: HTTP %d (%s): %v", e.Op, e.Worker, e.Status, e.Code, e.Err)
	}
	return fmt.Sprintf("remote: %s on %s: %v", e.Op, e.Worker, e.Err)
}

func (e *RPCError) Unwrap() error { return e.Err }

// Unavailable reports whether the failure means the worker (or the
// network to it) is unusable — no response, or a 5xx — as opposed to the
// request itself being rejected (4xx). Unavailable failures are the ones
// failover may re-mine locally: the same request on a local worker would
// not reproduce the error.
func (e *RPCError) Unavailable() bool {
	if e.permanent {
		return false
	}
	return e.Status == 0 || e.Status >= 500 || (e.Status == 404 && e.Code == codeShardNotLoaded)
}

// IsUnavailable reports whether err (at any wrap depth) is an RPC
// failure that indicts the worker, the trigger condition for failover.
func IsUnavailable(err error) bool {
	var re *RPCError
	return errors.As(err, &re) && re.Unavailable()
}

// Metrics holds the client side's tpmd_remote_* handles; the pool, its
// registry and its clients bump them directly, and NewMetrics documents
// each in its HELP text.
type Metrics struct {
	RPCs        *obs.CounterVec   // op, outcome: ok, error
	RPCDuration *obs.HistogramVec // op
	Bytes       *obs.CounterVec   // op, dir: sent, received
	Retries     *obs.CounterVec   // op
	Failovers   *obs.Counter
	WorkersUp   *obs.Gauge
	Workers     *obs.Gauge
	Pushes      *obs.Counter
	PushBytes   *obs.Counter
}

// NewMetrics registers the client side's families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		RPCs: reg.NewCounterVec("tpmd_remote_rpcs_total",
			"Remote worker RPCs completed (after retries), by operation and outcome.", "op", "outcome"),
		RPCDuration: reg.NewHistogramVec("tpmd_remote_rpc_duration_seconds",
			"Remote worker RPC wall time (including retries within one call), by operation.", nil, "op"),
		Bytes: reg.NewCounterVec("tpmd_remote_bytes_total",
			"Wire bytes moved to/from remote workers, by operation and direction.", "op", "dir"),
		Retries: reg.NewCounterVec("tpmd_remote_retries_total",
			"Remote RPC attempts retried after a transient failure, by operation.", "op"),
		Failovers: reg.NewCounter("tpmd_remote_failovers_total",
			"Shards re-mined on the in-process fallback after their remote worker became unavailable."),
		WorkersUp: reg.NewGauge("tpmd_remote_worker_up",
			"Remote workers currently considered healthy by the registry."),
		Workers: reg.NewGauge("tpmd_remote_worker_total",
			"Remote workers configured via -workers."),
		Pushes: reg.NewCounter("tpmd_remote_shard_pushes_total",
			"Shard payloads pushed to remote workers (one per worker x dataset version x shard)."),
		PushBytes: reg.NewCounter("tpmd_remote_shard_push_bytes_total",
			"Compressed shard payload bytes pushed to remote workers."),
	}
}

// ensureMetrics returns m, or handles on a private registry when m is
// nil.
func ensureMetrics(m *Metrics) *Metrics {
	if m == nil {
		return NewMetrics(obs.NewRegistry())
	}
	return m
}
