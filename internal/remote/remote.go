// Package remote implements shard.Worker over HTTP: a worker role that
// caches pushed shard databases and mines them on request, a client that
// speaks to it with per-call timeouts and transient-error retry, and a
// pool that tracks worker health and push state and builds each mine's
// coordinator, whose remote shards fail over exactly: an unreachable
// worker's shard is re-mined on an in-process LocalWorker.
//
// Exactness argument: the unit of distribution is the shard database,
// pushed verbatim and keyed on the worker by the SHA-256 of its
// encoding, which the worker checks before caching it. Mine and count
// bodies name the shard by that digest alone, and a digest key cannot
// hold other bytes, so a worker mines exactly the bytes the coordinator
// split off, whichever coordinator pushed them. The mine and count
// bodies carry the coordinator's shard.MineShardRequest and
// shard.CountRequest field by field, and the worker answers with the
// core.Result or shard.CountResponse its LocalWorker computed, in one
// binary codec (wire.go) that holds every value exactly and refuses a
// body of another format version or with a field this build lacks. A
// worker therefore computes exactly what a LocalWorker over the same
// sub-database would compute, and the coordinator's merge — which is
// already proven byte-identical to serial mining for local workers —
// cannot tell the difference. Failover re-runs the same request on a
// LocalWorker over the same sub-database, so a mid-mine worker loss
// changes latency, not results.
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

// ShardKey names one shard of one dataset version on the coordinator:
// the pool's push state is keyed by it, and errors and logs name a shard
// by it. It does not name the bytes (two coordinators that share a
// worker can each hold a dataset of the same name at the same version),
// so it reaches a worker only as a label, in the push's X-Shard-Key
// header; the worker keys each shard by its digest.
type ShardKey struct {
	Dataset string
	Version uint64
	Shard   int
}

// String renders the key as dataset@vVERSION/SHARD, with the dataset
// name path-escaped so the label is safe in a header and unambiguous.
func (k ShardKey) String() string {
	return fmt.Sprintf("%s@v%d/%d", url.PathEscape(k.Dataset), k.Version, k.Shard)
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
	// unmarshalable requests); resilience.IsPermanent sees it via Is.
	permanent bool
}

// Is classifies permanent RPC failures for resilience.IsPermanent without
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

// IsUnavailable reports whether err (at any wrap depth) is an RPC
// failure that means the worker (or the network to it) is unusable — no
// response, a 5xx, or a worker that lost the shard — as opposed to the
// request itself being rejected (4xx). Those are the failures failover
// may re-mine locally: the same request on a local worker would not
// reproduce the error.
func IsUnavailable(err error) bool {
	var e *RPCError
	return errors.As(err, &e) && !e.permanent &&
		(e.Status == 0 || e.Status >= 500 || (e.Status == 404 && e.Code == codeShardNotLoaded))
}

// Metrics holds the client side's tpmd_remote_* handles; the pool and
// its clients bump them directly, and NewMetrics documents each in its
// HELP text.
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
			"Remote workers currently considered healthy by the pool."),
		Workers: reg.NewGauge("tpmd_remote_worker_total",
			"Remote workers configured via -workers."),
		Pushes: reg.NewCounter("tpmd_remote_shard_pushes_total",
			"Shard payloads pushed to remote workers (one per worker x dataset version x shard)."),
		PushBytes: reg.NewCounter("tpmd_remote_shard_push_bytes_total",
			"Compressed shard payload bytes pushed to remote workers."),
	}
}
