package remote

import (
	"context"
	"time"

	"tpminer/internal/shard"
)

// Failover tries the primary (remote) worker and, when it proves
// unavailable, re-runs the identical request on the fallback — a
// LocalWorker over the very same shard sub-database. Because the
// request, the options, and the data are identical, the fallback's
// answer is the one the primary would have produced, so failover is
// invisible in the merged result: results stay byte-identical to
// all-local and to serial mining.
//
// Failover never fires when the caller's context is already done (the
// failure is then the caller's cancellation, not the worker's fault —
// and the fan-out cancels sibling shards on first error, so re-mining
// would waste work on a request that already failed) nor on permanent
// request errors, which the fallback would reproduce anyway.
type Failover struct {
	Primary  shard.Worker
	Fallback shard.Worker
	// OnFailover, if non-nil, runs before the fallback mines — the hook
	// for logging, metrics, and demoting the worker in the registry.
	OnFailover func(shardID int, err error)
}

// WorkerAddr names the primary; fan-out errors that survive failover
// come from the fallback path and are attributed by its own address.
func (f *Failover) WorkerAddr() string { return shard.WorkerAddr(f.Primary) }

func (f *Failover) shouldFailOver(ctx context.Context, err error) bool {
	return err != nil && ctx.Err() == nil && IsUnavailable(err)
}

// Mine implements shard.Worker.
func (f *Failover) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	resp, err := f.Primary.Mine(ctx, req)
	if !f.shouldFailOver(ctx, err) {
		return resp, err
	}
	if f.OnFailover != nil {
		f.OnFailover(req.Shard, err)
	}
	return f.Fallback.Mine(ctx, req)
}

// Count implements shard.Worker.
func (f *Failover) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	resp, err := f.Primary.Count(ctx, req)
	if !f.shouldFailOver(ctx, err) {
		return resp, err
	}
	if f.OnFailover != nil {
		f.OnFailover(req.Shard, err)
	}
	return f.Fallback.Count(ctx, req)
}

// instrumented decorates a Worker with per-call metrics. It changes no
// semantics — the workertest conformance suite runs against it to pin
// that down.
type instrumented struct {
	w shard.Worker
	m *Metrics
}

// Instrument wraps w so each Mine/Count counts one RPC, with its
// outcome and wall time, on m (nil: a private registry).
func Instrument(w shard.Worker, m *Metrics) shard.Worker {
	return &instrumented{w: w, m: ensureMetrics(m)}
}

// WorkerAddr passes the wrapped worker's address through.
func (iw *instrumented) WorkerAddr() string { return shard.WorkerAddr(iw.w) }

func (iw *instrumented) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	t0 := time.Now()
	resp, err := iw.w.Mine(ctx, req)
	iw.done(OpMine, t0, err)
	return resp, err
}

func (iw *instrumented) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	t0 := time.Now()
	resp, err := iw.w.Count(ctx, req)
	iw.done(OpCount, t0, err)
	return resp, err
}

// done counts one completed call started at t0.
func (iw *instrumented) done(op string, t0 time.Time, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	iw.m.RPCs.With(op, outcome).Inc()
	iw.m.RPCDuration.With(op).Observe(time.Since(t0).Seconds())
}
