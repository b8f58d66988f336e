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
	"time"

	"tpminer/internal/api"
	"tpminer/internal/obs"
	"tpminer/internal/resilience"
	"tpminer/internal/shard"
)

const (
	// pushTimeout bounds one shard push attempt.
	pushTimeout = 30 * time.Second
	// countTimeout bounds one count attempt; a count tests each pattern
	// only on the shard sequences of its shortest posting list and
	// finishes fast relative to mining. A mine attempt has no bound of
	// its own: the mine context's deadline governs.
	countTimeout = 2 * time.Minute
	// maxResponseBytes bounds a worker response the client will buffer.
	maxResponseBytes = 1 << 31
)

// ClientOptions configures RemoteWorker instances. The zero value is
// usable: http.DefaultClient, the default retry policy, and metrics on
// a private registry.
type ClientOptions struct {
	// HTTPClient issues the requests. nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry governs transient-failure retries per RPC. Zero value =
	// resilience defaults (3 attempts, jittered backoff).
	Retry resilience.RetryPolicy
	// Metrics receives client instrumentation; nil counts on a private
	// registry.
	Metrics *Metrics
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.Metrics == nil {
		o.Metrics = NewMetrics(obs.NewRegistry())
	}
	return o
}

// RemoteWorker implements shard.Worker against one worker process over
// HTTP. Each call pushes the shard first if this worker is not known to
// hold it, then issues the RPC, retrying transient failures (network
// errors, 5xx, a worker that lost the shard) under the configured
// policy. Context cancellation is never retried.
type RemoteWorker struct {
	base   string
	data   *ShardData
	opt    ClientOptions
	pushed *pushTracker
}

// NewRemoteWorker creates a client for the worker at base (e.g.
// "http://10.0.0.7:9090") mining the shard held by data. Its push state
// is its own; a Pool's workers share the pool's.
func NewRemoteWorker(base string, data *ShardData, opt ClientOptions) *RemoteWorker {
	return newRemoteWorker(strings.TrimRight(base, "/"), data, opt.withDefaults(), newPushTracker())
}

// newRemoteWorker creates a client for the worker at base, which has no
// trailing slash, that records pushes in pushed. opt must already carry
// its defaults.
func newRemoteWorker(base string, data *ShardData, opt ClientOptions, pushed *pushTracker) *RemoteWorker {
	return &RemoteWorker{base: base, data: data, opt: opt, pushed: pushed}
}

// WorkerAddr names this worker in wrapped fan-out errors.
func (w *RemoteWorker) WorkerAddr() string { return w.base }

// Mine implements shard.Worker.
func (w *RemoteWorker) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	b := mineBody{digest: w.data.Digest(), req: *req}
	if dl, ok := ctx.Deadline(); ok {
		b.timeoutMillis = max(time.Until(dl).Milliseconds(), 1)
	}
	var resp *shard.MineShardResponse
	err := w.call(ctx, OpMine, 0, "/v1/worker/mine", appendMineBody(nil, &b), func(data []byte) (err error) {
		resp, err = decodeResult(data)
		return err
	})
	return resp, err
}

// Count implements shard.Worker.
func (w *RemoteWorker) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	b := countBody{digest: w.data.Digest(), req: *req}
	var resp *shard.CountResponse
	err := w.call(ctx, OpCount, countTimeout, "/v1/worker/count", appendCountBody(nil, &b), func(data []byte) (err error) {
		resp, err = decodeSupports(data)
		return err
	})
	return resp, err
}

// call runs one logical RPC over an encoded body: attempt (push if
// needed, POST, decode the reply) under the retry policy, and count the
// call once with its outcome and wall time, retries included. A
// canceled caller context aborts immediately — resilience classifies it
// permanent via ctxErr — and surfaces the context's own error.
func (w *RemoteWorker) call(ctx context.Context, op string, timeout time.Duration, path string, body []byte, decode func([]byte) error) (err error) {
	t0 := time.Now()
	defer func() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		w.opt.Metrics.RPCs.With(op, outcome).Inc()
		w.opt.Metrics.RPCDuration.With(op).Observe(time.Since(t0).Seconds())
	}()
	err = w.opt.Retry.Do(func() error {
		if cerr := ctx.Err(); cerr != nil {
			return ctxErr{cerr}
		}
		if perr := w.ensurePushed(ctx); perr != nil {
			return perr
		}
		return w.post(ctx, op, timeout, path, body, decode)
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

// post issues one attempt of a POST under the per-attempt timeout; 0
// leaves the attempt bounded by ctx alone. A 200 reply goes to decode;
// one it cannot decode is a transient failure with no status, like a
// reply that never arrived, so it is retried and then failed over.
func (w *RemoteWorker) post(ctx context.Context, op string, timeout time.Duration, path string, body []byte, decode func([]byte) error) error {
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
	req.Header.Set("Content-Type", wireContentType)
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
	if err := decode(data); err != nil {
		return &RPCError{Op: op, Worker: w.base, Err: fmt.Errorf("malformed response: %w", err)}
	}
	return nil
}

// statusError turns a non-200 worker response into a classified
// RPCError. A shard_not_loaded 404 invalidates the push state so the
// retry (or the next request) re-pushes; 5xx stays transient; any other
// 4xx is permanent — the request is at fault, not the worker.
func (w *RemoteWorker) statusError(op string, status int, data []byte) error {
	var ew api.ErrorEnvelope
	_ = json.Unmarshal(data, &ew) // a non-envelope body just leaves Code empty
	msg := ew.Error.Message
	if msg == "" {
		msg = http.StatusText(status)
	}
	rerr := &RPCError{Op: op, Worker: w.base, Status: status, Code: ew.Error.Code, Err: errors.New(msg)}
	if status == http.StatusNotFound && ew.Error.Code == codeShardNotLoaded {
		w.pushed.invalidate(w.base, w.data.Key)
		return rerr // transient: the retry re-pushes and re-asks
	}
	if status >= 400 && status < 500 {
		rerr.permanent = true
	}
	return rerr
}

// ensurePushed uploads the shard payload unless this worker is already
// known to hold this exact version. A push of other bytes than the ones
// last pushed there for the same (dataset, shard) names those in
// X-Shard-Replaces, so the worker frees them.
func (w *RemoteWorker) ensurePushed(ctx context.Context) error {
	last, current := w.pushed.last(w.base, w.data.Key)
	if current {
		return nil
	}
	payload, digest, err := w.data.Encode()
	if err != nil {
		return &RPCError{Op: OpPush, Worker: w.base, Err: err, permanent: true}
	}
	pctx, cancel := context.WithTimeout(ctx, pushTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPut, w.base+"/v1/worker/shards/"+digest, bytes.NewReader(payload))
	if err != nil {
		return &RPCError{Op: OpPush, Worker: w.base, Err: err, permanent: true}
	}
	req.Header.Set("Content-Type", wireContentType)
	req.Header.Set(shardKeyHeader, w.data.Key.String())
	if last != "" && last != digest {
		req.Header.Set(shardReplacesHeader, last)
	}
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
	w.pushed.mark(w.base, w.data.Key, digest)
	return nil
}
