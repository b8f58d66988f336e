package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tpminer/internal/resilience"
	"tpminer/internal/shard"
)

// Client defaults.
const (
	// DefaultPushTimeout bounds one shard push attempt.
	DefaultPushTimeout = 30 * time.Second
	// DefaultCountTimeout bounds one count attempt; counts scan the
	// shard once per pattern batch and finish fast relative to mining.
	DefaultCountTimeout = 2 * time.Minute
	// maxResponseBytes bounds a worker response the client will buffer.
	maxResponseBytes = 1 << 31
)

// ClientOptions configures RemoteWorker instances. The zero value is
// usable: default timeouts, the default retry policy, shared push state
// per worker instance only.
type ClientOptions struct {
	// HTTPClient issues the requests. nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry governs transient-failure retries per RPC. Zero value =
	// resilience defaults (3 attempts, jittered backoff).
	Retry resilience.RetryPolicy
	// PushTimeout / CountTimeout / MineTimeout bound one attempt of the
	// respective call, layered under the caller's context. Zero selects
	// the default (for MineTimeout: no per-attempt bound — the mine
	// context's deadline governs).
	PushTimeout  time.Duration
	CountTimeout time.Duration
	MineTimeout  time.Duration
	// Metrics receives client instrumentation; nil counts on a private
	// registry.
	Metrics *Metrics
	// Tracker shares push state across workers and requests, so a shard
	// is re-pushed only on version change (or after the worker reports
	// it missing). nil creates a private tracker.
	Tracker *PushTracker
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.PushTimeout <= 0 {
		o.PushTimeout = DefaultPushTimeout
	}
	if o.CountTimeout <= 0 {
		o.CountTimeout = DefaultCountTimeout
	}
	o.Metrics = ensureMetrics(o.Metrics)
	if o.Tracker == nil {
		o.Tracker = NewPushTracker()
	}
	return o
}

// PushTracker remembers which worker holds which shard version, keyed
// (worker, dataset, shard) → version. Versions are monotone, so storing
// only the latest bounds the map at workers × datasets × shards.
type PushTracker struct {
	mu     sync.Mutex
	pushed map[pushKey]uint64
}

type pushKey struct {
	addr    string
	dataset string
	shard   int
}

// NewPushTracker creates an empty tracker.
func NewPushTracker() *PushTracker {
	return &PushTracker{pushed: make(map[pushKey]uint64)}
}

// Pushed reports whether addr is known to hold exactly k's version.
func (t *PushTracker) Pushed(addr string, k ShardKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.pushed[pushKey{addr, k.Dataset, k.Shard}]
	return ok && v == k.Version
}

func (t *PushTracker) mark(addr string, k ShardKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pushed[pushKey{addr, k.Dataset, k.Shard}] = k.Version
}

func (t *PushTracker) invalidate(addr string, k ShardKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.pushed, pushKey{addr, k.Dataset, k.Shard})
}

// RemoteWorker implements shard.Worker against one worker process over
// HTTP. Each call pushes the shard first if this worker is not known to
// hold it, then issues the RPC, retrying transient failures (network
// errors, 5xx, a worker that lost the shard) under the configured
// policy. Context cancellation is never retried.
type RemoteWorker struct {
	base string
	data *ShardData
	opt  ClientOptions
}

// NewRemoteWorker creates a client for the worker at base (e.g.
// "http://10.0.0.7:9090") mining the shard held by data.
func NewRemoteWorker(base string, data *ShardData, opt ClientOptions) *RemoteWorker {
	return &RemoteWorker{base: strings.TrimRight(base, "/"), data: data, opt: opt.withDefaults()}
}

// WorkerAddr names this worker in wrapped fan-out errors.
func (w *RemoteWorker) WorkerAddr() string { return w.base }

// Mine implements shard.Worker.
func (w *RemoteWorker) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	wreq := mineWire{Key: w.data.Key, Shard: req.Shard, Kind: req.Kind, TopK: req.TopK, Opt: req.Opt}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wreq.TimeoutMillis = ms
	}
	var resp mineRespWire
	if err := w.call(ctx, OpMine, w.opt.MineTimeout, "/v1/worker/mine", wreq, &resp); err != nil {
		return nil, err
	}
	return &shard.MineShardResponse{Temporal: resp.Temporal, Coinc: resp.Coinc, Stats: resp.Stats}, nil
}

// Count implements shard.Worker.
func (w *RemoteWorker) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	wreq := countWire{Key: w.data.Key, Shard: req.Shard, Kind: req.Kind,
		Temporal: req.Temporal, Coinc: req.Coinc, MaxSpan: req.MaxSpan, MaxGap: req.MaxGap}
	var resp countRespWire
	if err := w.call(ctx, OpCount, w.opt.CountTimeout, "/v1/worker/count", wreq, &resp); err != nil {
		return nil, err
	}
	return &shard.CountResponse{Supports: resp.Supports}, nil
}

// call runs one logical RPC: marshal once, then attempt (push if
// needed, POST, decode) under the retry policy. A canceled caller
// context aborts immediately — resilience classifies it permanent via
// ctxErr — and surfaces the context's own error.
func (w *RemoteWorker) call(ctx context.Context, op string, timeout time.Duration, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("remote: marshal %s request: %w", op, err)
	}
	err = w.opt.Retry.Do(func() error {
		if cerr := ctx.Err(); cerr != nil {
			return ctxErr{cerr}
		}
		if perr := w.ensurePushed(ctx); perr != nil {
			return perr
		}
		return w.post(ctx, op, timeout, path, body, out)
	}, func(_ error, _ int) {
		w.opt.Metrics.Retries.With(op).Inc()
	})
	if ce, ok := err.(ctxErr); ok {
		return ce.error
	}
	return err
}

// ctxErr marks a caller-context error permanent for the retry policy
// without changing what the caller unwraps.
type ctxErr struct{ error }

func (ctxErr) Is(target error) bool { return target == resilience.ErrPermanent }
func (e ctxErr) Unwrap() error      { return e.error }

// post issues one attempt of a JSON POST under the per-attempt timeout.
func (w *RemoteWorker) post(ctx context.Context, op string, timeout time.Duration, path string, body []byte, out any) error {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return &RPCError{Op: op, Worker: w.base, Err: err, permanent: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opt.HTTPClient.Do(req)
	if err != nil {
		return &RPCError{Op: op, Worker: w.base, Err: err}
	}
	defer resp.Body.Close()
	w.opt.Metrics.Bytes.With(op, "sent").Add(uint64(len(body)))
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return &RPCError{Op: op, Worker: w.base, Err: fmt.Errorf("read response: %w", err)}
	}
	w.opt.Metrics.Bytes.With(op, "received").Add(uint64(len(data)))
	if resp.StatusCode != http.StatusOK {
		return w.statusError(op, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return &RPCError{Op: op, Worker: w.base, Err: fmt.Errorf("malformed response: %w", err)}
	}
	return nil
}

// statusError turns a non-200 worker response into a classified
// RPCError. A shard_not_loaded 404 invalidates the push state so the
// retry (or the next request) re-pushes; 5xx stays transient; any other
// 4xx is permanent — the request is at fault, not the worker.
func (w *RemoteWorker) statusError(op string, status int, data []byte) error {
	var ew errWire
	_ = json.Unmarshal(data, &ew) // a non-envelope body just leaves Code empty
	msg := ew.Error.Message
	if msg == "" {
		msg = http.StatusText(status)
	}
	rerr := &RPCError{Op: op, Worker: w.base, Status: status, Code: ew.Error.Code, Err: errors.New(msg)}
	if status == http.StatusNotFound && ew.Error.Code == codeShardNotLoaded {
		w.opt.Tracker.invalidate(w.base, w.data.Key)
		return rerr // transient: the retry re-pushes and re-asks
	}
	if status >= 400 && status < 500 {
		rerr.permanent = true
	}
	return rerr
}

// ensurePushed uploads the shard payload unless this worker is already
// known to hold this exact version.
func (w *RemoteWorker) ensurePushed(ctx context.Context) error {
	if w.opt.Tracker.Pushed(w.base, w.data.Key) {
		return nil
	}
	payload, digest, err := w.data.Encode()
	if err != nil {
		return &RPCError{Op: OpPush, Worker: w.base, Err: err, permanent: true}
	}
	pctx, cancel := context.WithTimeout(ctx, w.opt.PushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPut, w.base+w.data.Key.path(), bytes.NewReader(payload))
	if err != nil {
		return &RPCError{Op: OpPush, Worker: w.base, Err: err, permanent: true}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(shardDigestHeader, digest)
	resp, err := w.opt.HTTPClient.Do(req)
	if err != nil {
		return &RPCError{Op: OpPush, Worker: w.base, Err: err}
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	w.opt.Metrics.Bytes.With(OpPush, "sent").Add(uint64(len(payload)))
	if resp.StatusCode != http.StatusNoContent {
		return w.statusError(OpPush, resp.StatusCode, data)
	}
	w.opt.Metrics.Pushes.Inc()
	w.opt.Metrics.PushBytes.Add(uint64(len(payload)))
	w.opt.Tracker.mark(w.base, w.data.Key)
	return nil
}
