package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tpminer/internal/dataio"
	"tpminer/internal/obs"
	"tpminer/internal/shard"
)

// Worker-server defaults.
const (
	// DefaultMaxCachedShards bounds the shard cache; past it the
	// least-recently-used entry is evicted (the coordinator will simply
	// re-push on the next request for it).
	DefaultMaxCachedShards = 256
	// DefaultMaxShardBytes bounds one shard's inflated payload.
	DefaultMaxShardBytes = 1 << 30
)

// WorkerConfig configures a WorkerServer.
type WorkerConfig struct {
	// Logger may be nil (logging disabled).
	Logger *slog.Logger
	// MaxCachedShards caps the shard cache. 0 means
	// DefaultMaxCachedShards.
	MaxCachedShards int
	// MaxShardBytes caps one pushed shard's inflated size. 0 means
	// DefaultMaxShardBytes.
	MaxShardBytes int64
	// MineTimeout is this worker's own ceiling on one mine or count
	// call, applied on top of the client's declared budget. 0 disables
	// it (the request context still bounds the work).
	MineTimeout time.Duration
	// Registry receives the worker's metrics and backs
	// GET /v1/worker/metrics. nil creates a private registry.
	Registry *obs.Registry
}

// cachedShard is one pushed shard: a ready-to-mine LocalWorker plus the
// bookkeeping the shard list and LRU eviction need.
type cachedShard struct {
	worker  *shard.LocalWorker
	seqs    int
	bytes   int64 // uncompressed payload size
	lastUse uint64
}

// WorkerServer is the worker role: it caches pushed shard databases and
// serves mine/count requests over them through ordinary LocalWorkers,
// so a remote mine computes exactly what the in-process path would.
type WorkerServer struct {
	cfg    WorkerConfig
	logger *slog.Logger
	reg    *obs.Registry

	mu     sync.Mutex
	shards map[ShardKey]*cachedShard
	clock  uint64 // LRU tick

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
	if cfg.MaxCachedShards <= 0 {
		cfg.MaxCachedShards = DefaultMaxCachedShards
	}
	if cfg.MaxShardBytes <= 0 {
		cfg.MaxShardBytes = DefaultMaxShardBytes
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &WorkerServer{
		cfg:    cfg,
		logger: cfg.Logger,
		reg:    reg,
		shards: make(map[ShardKey]*cachedShard),
		rpcs: reg.NewCounterVec("tpmd_worker_rpcs_total",
			"Worker RPCs served, by operation and outcome.", "op", "outcome"),
		cachedN: reg.NewGauge("tpmd_worker_shards_cached",
			"Shard databases currently cached on this worker."),
		cachedB: reg.NewGauge("tpmd_worker_shard_bytes",
			"Total uncompressed bytes of cached shard databases."),
		pushBytesC: reg.NewCounter("tpmd_worker_shard_push_bytes_total",
			"Total uncompressed bytes accepted through shard pushes."),
	}
}

// Handler returns the worker role's HTTP surface.
func (ws *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/worker/healthz", ws.handleHealthz)
	mux.HandleFunc("GET /v1/worker/shards", ws.handleShardList)
	mux.HandleFunc("PUT /v1/worker/shards/{dataset}/{version}/{shard}", ws.handleShardPush)
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

// lookup fetches a cached shard and bumps its LRU tick.
func (ws *WorkerServer) lookup(key ShardKey) *shard.LocalWorker {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	cs, ok := ws.shards[key]
	if !ok {
		return nil
	}
	ws.clock++
	cs.lastUse = ws.clock
	return cs.worker
}

// store caches one pushed shard, evicting (a) other versions of the same
// (dataset, shard) — the store's versions are monotone, so an old
// version will never be requested again — and (b) the least-recently-
// used entries past the cache cap.
func (ws *WorkerServer) store(key ShardKey, cs *cachedShard) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for k := range ws.shards {
		if k.Dataset == key.Dataset && k.Shard == key.Shard && k.Version != key.Version {
			delete(ws.shards, k)
		}
	}
	ws.clock++
	cs.lastUse = ws.clock
	ws.shards[key] = cs
	for len(ws.shards) > ws.cfg.MaxCachedShards {
		var (
			oldest    ShardKey
			oldestUse = uint64(1<<64 - 1)
		)
		for k, c := range ws.shards {
			if k != key && c.lastUse < oldestUse {
				oldest, oldestUse = k, c.lastUse
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

// shardInfo is one cached shard on the wire.
type shardInfo struct {
	Dataset   string `json:"dataset"`
	Version   uint64 `json:"version"`
	Shard     int    `json:"shard"`
	Sequences int    `json:"sequences"`
	Bytes     int64  `json:"bytes"`
}

func (ws *WorkerServer) handleShardList(w http.ResponseWriter, r *http.Request) {
	ws.mu.Lock()
	out := make([]shardInfo, 0, len(ws.shards))
	for k, c := range ws.shards {
		out = append(out, shardInfo{Dataset: k.Dataset, Version: k.Version, Shard: k.Shard,
			Sequences: c.seqs, Bytes: c.bytes})
	}
	ws.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].Shard < out[j].Shard
	})
	ws.writeJSON(w, http.StatusOK, map[string]any{"shards": out})
}

func (ws *WorkerServer) handleShardPush(w http.ResponseWriter, r *http.Request) {
	key, err := pathShardKey(r)
	if err != nil {
		ws.rpcs.With(OpPush, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	// Re-pushing cached content is a no-op: the key names immutable
	// bytes, so presence alone proves the payload.
	if ws.lookup(key) != nil {
		ws.rpcs.With(OpPush, "ok").Inc()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	db, rawBytes, err := decodeShardPayload(r.Body, r.Header.Get(shardDigestHeader), ws.cfg.MaxShardBytes)
	if err != nil {
		ws.rpcs.With(OpPush, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadPayload, err.Error())
		return
	}
	ws.store(key, &cachedShard{worker: shard.NewLocalWorker(db), seqs: len(db.Sequences), bytes: rawBytes})
	ws.pushBytesC.Add(uint64(rawBytes))
	ws.rpcs.With(OpPush, "ok").Inc()
	ws.logger.Info("shard cached", "key", key.String(), "sequences", len(db.Sequences), "bytes", rawBytes)
	w.WriteHeader(http.StatusNoContent)
}

// pathShardKey parses the shard-push path wildcards.
func pathShardKey(r *http.Request) (ShardKey, error) {
	ver, err := strconv.ParseUint(r.PathValue("version"), 10, 64)
	if err != nil {
		return ShardKey{}, fmt.Errorf("bad version %q", r.PathValue("version"))
	}
	sh, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || sh < 0 {
		return ShardKey{}, fmt.Errorf("bad shard index %q", r.PathValue("shard"))
	}
	name := r.PathValue("dataset")
	if name == "" {
		return ShardKey{}, errors.New("empty dataset name")
	}
	return ShardKey{Dataset: name, Version: ver, Shard: sh}, nil
}

// handleMine and handleCount decode their bodies strictly
// (dataio.DecodeJSON) within MaxShardBytes: a field the coordinator
// sends that this build lacks, as during a rolling deploy, is refused
// rather than silently dropped from the mine.
func (ws *WorkerServer) handleMine(w http.ResponseWriter, r *http.Request) {
	var req mineWire
	if err := dataio.DecodeJSON(http.MaxBytesReader(w, r.Body, ws.cfg.MaxShardBytes), &req); err != nil {
		ws.rpcs.With(OpMine, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadRequest, "malformed mine request: "+err.Error())
		return
	}
	// A parallel mine returns the same result at any worker count, so
	// cap the request's at this machine's cores: asking for more would
	// only allocate idle workers.
	req.Opt.Parallel = min(req.Opt.Parallel, runtime.GOMAXPROCS(0))
	worker := ws.lookup(req.Key)
	if worker == nil {
		ws.rpcs.With(OpMine, "not_loaded").Inc()
		ws.writeErr(w, http.StatusNotFound, codeShardNotLoaded, "shard "+req.Key.String()+" not loaded; push it first")
		return
	}
	ctx, cancel := ws.workContext(r.Context(), req.TimeoutMillis)
	defer cancel()
	resp, err := worker.Mine(ctx, &shard.MineShardRequest{
		Shard: req.Shard, Kind: req.Kind, TopK: req.TopK, Opt: req.Opt,
	})
	if err != nil {
		ws.writeWorkErr(w, OpMine, err)
		return
	}
	ws.rpcs.With(OpMine, "ok").Inc()
	ws.writeJSON(w, http.StatusOK, mineRespWire{Temporal: resp.Temporal, Coinc: resp.Coinc, Stats: resp.Stats})
}

func (ws *WorkerServer) handleCount(w http.ResponseWriter, r *http.Request) {
	var req countWire
	if err := dataio.DecodeJSON(http.MaxBytesReader(w, r.Body, ws.cfg.MaxShardBytes), &req); err != nil {
		ws.rpcs.With(OpCount, "client_error").Inc()
		ws.writeErr(w, http.StatusBadRequest, codeBadRequest, "malformed count request: "+err.Error())
		return
	}
	worker := ws.lookup(req.Key)
	if worker == nil {
		ws.rpcs.With(OpCount, "not_loaded").Inc()
		ws.writeErr(w, http.StatusNotFound, codeShardNotLoaded, "shard "+req.Key.String()+" not loaded; push it first")
		return
	}
	ctx, cancel := ws.workContext(r.Context(), 0)
	defer cancel()
	resp, err := worker.Count(ctx, &shard.CountRequest{
		Shard: req.Shard, Kind: req.Kind, Temporal: req.Temporal, Coinc: req.Coinc,
		MaxSpan: req.MaxSpan, MaxGap: req.MaxGap,
	})
	if err != nil {
		ws.writeWorkErr(w, OpCount, err)
		return
	}
	ws.rpcs.With(OpCount, "ok").Inc()
	ws.writeJSON(w, http.StatusOK, countRespWire{Supports: resp.Supports})
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

func (ws *WorkerServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		ws.logger.Warn("write response", "err", err)
	}
}

func (ws *WorkerServer) writeErr(w http.ResponseWriter, status int, code, msg string) {
	var e errWire
	e.Error.Code = code
	e.Error.Message = msg
	ws.writeJSON(w, status, e)
}
