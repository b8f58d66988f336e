package remote

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/obs"
	"tpminer/internal/shard"
)

// Worker-server limits.
const (
	// maxCachedShards bounds the shard cache; past it the
	// least-recently-used entry is evicted (the coordinator will simply
	// re-push on the next request for it).
	maxCachedShards = 256
	// DefaultMaxShardBytes bounds one shard's inflated payload.
	DefaultMaxShardBytes = 1 << 30
)

// WorkerConfig configures a WorkerServer.
type WorkerConfig struct {
	// Logger may be nil (logging disabled).
	Logger *slog.Logger
	// MaxShardBytes caps one pushed shard's inflated size. 0 means
	// DefaultMaxShardBytes.
	MaxShardBytes int64
	// MineTimeout is this worker's own ceiling on one mine or count
	// call, applied on top of the client's declared budget. 0 disables
	// it (the request context still bounds the work).
	MineTimeout time.Duration
}

// cachedShard is one pushed shard: a ready-to-mine LocalWorker, the
// pushing coordinator's label for it, and the bookkeeping the shard
// list and LRU eviction need.
type cachedShard struct {
	worker  *shard.LocalWorker
	label   string // the push's X-Shard-Key, shown, never keyed on
	seqs    int
	bytes   int64 // uncompressed payload size
	lastUse uint64
}

// WorkerServer is the worker role: it caches pushed shard databases,
// keyed by digest, and serves mine/count requests over them through
// ordinary LocalWorkers, so a remote mine computes exactly what the
// in-process path would.
type WorkerServer struct {
	cfg    WorkerConfig
	logger *slog.Logger
	reg    *obs.Registry

	mu     sync.Mutex
	shards map[string]*cachedShard // by digest
	clock  uint64                  // LRU tick

	rpcs       *obs.CounterVec
	cachedN    *obs.Gauge
	cachedB    *obs.Gauge
	pushBytesC *obs.Counter
}

// NewWorkerServer creates an empty worker.
func NewWorkerServer(cfg WorkerConfig) *WorkerServer {
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.MaxShardBytes <= 0 {
		cfg.MaxShardBytes = DefaultMaxShardBytes
	}
	// The worker's own registry backs GET /v1/worker/metrics.
	reg := obs.NewRegistry()
	return &WorkerServer{
		cfg:    cfg,
		logger: cfg.Logger,
		reg:    reg,
		shards: make(map[string]*cachedShard),
		rpcs: reg.NewCounterVec("tpmd_worker_rpcs_total",
			"Worker RPCs served, by operation and outcome.", "op", "outcome"),
		cachedN: reg.NewGauge("tpmd_worker_shards_cached",
			"Shard databases currently cached on this worker."),
		cachedB: reg.NewGauge("tpmd_worker_shard_bytes",
			"Total uncompressed bytes of cached shard databases."),
		pushBytesC: reg.NewCounter("tpmd_worker_shard_push_bytes_total",
			"Total uncompressed bytes of shard pushes decoded; a push of a digest already cached is not decoded and adds nothing."),
	}
}

// Handler returns the worker role's HTTP surface.
func (ws *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/worker/healthz", ws.handleHealthz)
	mux.HandleFunc("GET /v1/worker/shards", ws.handleShardList)
	mux.HandleFunc("PUT /v1/worker/shards/{digest}", ws.handleShardPush)
	mux.HandleFunc("POST /v1/worker/mine", ws.handleMine)
	mux.HandleFunc("POST /v1/worker/count", ws.handleCount)
	mux.Handle("GET /v1/worker/metrics", ws.reg.Handler())
	return mux
}

// Shards returns the number of cached shard databases.
func (ws *WorkerServer) Shards() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return len(ws.shards)
}

// lookup fetches a cached shard and bumps its LRU tick. Its fields but
// lastUse never change once stored, so callers read them unlocked.
func (ws *WorkerServer) lookup(digest string) *cachedShard {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	cs, ok := ws.shards[digest]
	if !ok {
		return nil
	}
	ws.clock++
	cs.lastUse = ws.clock
	return cs
}

// store caches cs under its digest, frees the digest its push replaces
// (the one its coordinator last pushed for the same dataset and shard;
// one not cached is no error), and evicts the least-recently-used
// entries past the cache cap.
func (ws *WorkerServer) store(digest, replaces string, cs *cachedShard) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if replaces != digest {
		delete(ws.shards, replaces)
	}
	ws.clock++
	cs.lastUse = ws.clock
	ws.shards[digest] = cs
	for len(ws.shards) > maxCachedShards {
		var (
			oldest    string
			oldestUse = uint64(1<<64 - 1)
		)
		for d, c := range ws.shards {
			if d != digest && c.lastUse < oldestUse {
				oldest, oldestUse = d, c.lastUse
			}
		}
		delete(ws.shards, oldest)
	}
	ws.updateGauges()
}

// updateGauges refreshes the cache gauges; callers hold ws.mu.
func (ws *WorkerServer) updateGauges() {
	var b int64
	for _, c := range ws.shards {
		b += c.bytes
	}
	ws.cachedN.Set(int64(len(ws.shards)))
	ws.cachedB.Set(b)
}

func (ws *WorkerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ws.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": ws.Shards()})
}

// shardInfo is one cached shard on the wire: its digest, the label its
// coordinator pushed it under, and its size.
type shardInfo struct {
	Digest    string `json:"digest"`
	Key       string `json:"key"`
	Sequences int    `json:"sequences"`
	Bytes     int64  `json:"bytes"`
}

func (ws *WorkerServer) handleShardList(w http.ResponseWriter, r *http.Request) {
	ws.mu.Lock()
	out := make([]shardInfo, 0, len(ws.shards))
	for d, c := range ws.shards {
		out = append(out, shardInfo{Digest: d, Key: c.label, Sequences: c.seqs, Bytes: c.bytes})
	}
	ws.mu.Unlock()
	slices.SortFunc(out, func(a, b shardInfo) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Digest, b.Digest))
	})
	ws.writeJSON(w, http.StatusOK, map[string]any{"shards": out})
}

// handleShardPush caches the pushed shard under the digest in its path.
// A digest already cached answers 204 without reading the body: a
// digest key cannot hold other bytes, so there is nothing to check or
// decode. Either way the digest in X-Shard-Replaces is freed.
func (ws *WorkerServer) handleShardPush(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !digestRE.MatchString(digest) {
		ws.rpcs.With(OpPush, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadPayload,
			fmt.Sprintf("bad shard digest %q: want 64 lowercase hex characters", digest))
		return
	}
	cs := ws.lookup(digest)
	if cs == nil {
		db, rawBytes, err := decodeShardPayload(r.Body, digest, ws.cfg.MaxShardBytes)
		if err != nil {
			ws.rpcs.With(OpPush, "client_error").Inc()
			ws.writeErr(w, http.StatusBadRequest, codeBadPayload, err.Error())
			return
		}
		cs = &cachedShard{worker: shard.NewLocalWorker(db), label: r.Header.Get(shardKeyHeader),
			seqs: len(db.Sequences), bytes: rawBytes}
		ws.pushBytesC.Add(uint64(rawBytes))
		ws.logger.Info("shard cached", "key", cs.label, "digest", digest, "sequences", cs.seqs, "bytes", rawBytes)
	}
	ws.store(digest, r.Header.Get(shardReplacesHeader), cs)
	ws.rpcs.With(OpPush, "ok").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleMine and handleCount read at most MaxShardBytes and decode
// their bodies exactly: a body of another format version, or one that
// carries a field this build lacks, as during a rolling deploy, is
// refused rather than mined without it.
func (ws *WorkerServer) handleMine(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, ws.cfg.MaxShardBytes))
	var b mineBody
	if err == nil {
		b, err = decodeMineBody(data)
	}
	if err != nil {
		ws.rpcs.With(OpMine, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadRequest, "malformed mine request: "+err.Error())
		return
	}
	// A parallel mine returns the same result at any worker count, so
	// cap the request's at this machine's cores: asking for more would
	// only allocate idle workers.
	b.req.Opt.Parallel = min(b.req.Opt.Parallel, runtime.GOMAXPROCS(0))
	cs := ws.loaded(w, OpMine, b.digest)
	if cs == nil {
		return
	}
	ctx, cancel := ws.workContext(r.Context(), b.timeoutMillis)
	defer cancel()
	resp, err := cs.worker.Mine(ctx, &b.req)
	if err != nil {
		ws.writeWorkErr(w, OpMine, err)
		return
	}
	ws.rpcs.With(OpMine, "ok").Inc()
	ws.writeBody(w, appendResult(nil, resp))
}

func (ws *WorkerServer) handleCount(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, ws.cfg.MaxShardBytes))
	var b countBody
	if err == nil {
		b, err = decodeCountBody(data)
	}
	if err != nil {
		ws.rpcs.With(OpCount, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadRequest, "malformed count request: "+err.Error())
		return
	}
	cs := ws.loaded(w, OpCount, b.digest)
	if cs == nil {
		return
	}
	ctx, cancel := ws.workContext(r.Context(), 0)
	defer cancel()
	resp, err := cs.worker.Count(ctx, &b.req)
	if err != nil {
		ws.writeWorkErr(w, OpCount, err)
		return
	}
	ws.rpcs.With(OpCount, "ok").Inc()
	ws.writeBody(w, appendSupports(nil, resp))
}

// loaded returns the shard cached under digest. Otherwise it answers
// shard_not_loaded, on which the client re-pushes and retries, and
// returns nil.
func (ws *WorkerServer) loaded(w http.ResponseWriter, op, digest string) *cachedShard {
	if cs := ws.lookup(digest); cs != nil {
		return cs
	}
	ws.rpcs.With(op, "not_loaded").Inc()
	ws.writeErr(w, http.StatusNotFound, codeShardNotLoaded, "shard "+digest+" not loaded; push it first")
	return nil
}

// workContext bounds one mine/count by the client's declared budget and
// the worker's own ceiling, whichever is tighter. The request context is
// always part of the chain, so a dropped connection cancels the work.
func (ws *WorkerServer) workContext(ctx context.Context, timeoutMillis int64) (context.Context, context.CancelFunc) {
	d := ws.cfg.MineTimeout
	if timeoutMillis > 0 {
		if t := time.Duration(timeoutMillis) * time.Millisecond; d <= 0 || t < d {
			d = t
		}
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// writeWorkErr maps a mine/count failure onto the wire: deadline → 504
// (the client may retry elsewhere), cancellation → 503 (the client is
// gone; the status is for the log line), anything else → 400 (the
// request itself is bad — a local worker would reject it identically,
// so failover must not retry it).
func (ws *WorkerServer) writeWorkErr(w http.ResponseWriter, op string, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		ws.rpcs.With(op, "timeout").Inc()
		ws.writeErr(w, http.StatusGatewayTimeout, codeMineTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		ws.rpcs.With(op, "canceled").Inc()
		ws.writeErr(w, http.StatusServiceUnavailable, codeMineFailed, err.Error())
	default:
		ws.rpcs.With(op, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeMineFailed, err.Error())
	}
}

// writeBody answers 200 with an encoded reply.
func (ws *WorkerServer) writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", wireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		ws.logger.Warn("write response", "err", err)
	}
}

func (ws *WorkerServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		ws.logger.Warn("write response", "err", err)
	}
}

func (ws *WorkerServer) writeErr(w http.ResponseWriter, status int, code, msg string) {
	ws.writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorDetail{Code: code, Message: msg}})
}
