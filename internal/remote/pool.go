package remote

import (
	"log/slog"

	"tpminer/internal/interval"
	"tpminer/internal/obs"
	"tpminer/internal/shard"
)

// PoolConfig configures a worker pool.
type PoolConfig struct {
	// Client configures the per-worker RPC clients. Its Tracker and
	// Metrics are overridden by the pool's own.
	Client ClientOptions
	// Registry configures health probing. Its Metrics/Logger default to
	// the pool's.
	Registry RegistryConfig
	// Logger may be nil (logging disabled).
	Logger *slog.Logger
	// Metrics receives all remote instrumentation; nil counts on a
	// private registry.
	Metrics *Metrics
}

// Pool owns the client side of a distributed deployment: the registry
// of configured workers, the shared push tracker (so each worker
// receives each shard version exactly once), and the construction of
// registry-aware coordinators for individual mine requests.
type Pool struct {
	reg     *Registry
	copt    ClientOptions
	met     *Metrics
	logger  *slog.Logger
	tracker *PushTracker
}

// NewPool creates a pool over the configured worker addresses and
// starts health probing. Close must be called to stop it.
func NewPool(addrs []string, cfg PoolConfig) *Pool {
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	met := ensureMetrics(cfg.Metrics)
	tracker := NewPushTracker()
	copt := cfg.Client
	copt.Metrics = met
	copt.Tracker = tracker
	rcfg := cfg.Registry
	if rcfg.Logger == nil {
		rcfg.Logger = cfg.Logger
	}
	if rcfg.Metrics == nil {
		rcfg.Metrics = met
	}
	if rcfg.HTTPClient == nil {
		rcfg.HTTPClient = copt.HTTPClient
	}
	return &Pool{
		reg:     NewRegistry(addrs, rcfg),
		copt:    copt.withDefaults(),
		met:     met,
		logger:  cfg.Logger,
		tracker: tracker,
	}
}

// Close stops the registry's probe loop.
func (p *Pool) Close() { p.reg.Close() }

// Registry exposes the pool's membership tracker.
func (p *Pool) Registry() *Registry { return p.reg }

// PoolStatus summarizes membership for readiness bodies.
type PoolStatus struct {
	Healthy int            `json:"healthy"`
	Total   int            `json:"total"`
	Workers []WorkerStatus `json:"workers"`
}

// Status returns the current membership snapshot.
func (p *Pool) Status() PoolStatus {
	ws := p.reg.Snapshot()
	st := PoolStatus{Total: len(ws), Workers: ws}
	for _, w := range ws {
		if w.Healthy {
			st.Healthy++
		}
	}
	return st
}

// ShardPlacement is one shard's assignment for the debug endpoint:
// which worker would mine it right now, and whether that worker already
// holds the shard's current version.
type ShardPlacement struct {
	Worker string `json:"worker"`
	Pushed bool   `json:"pushed"`
}

// assign maps shard i onto the healthy worker list. Deterministic for a
// given membership, so repeated requests reuse pushed shards instead of
// re-spraying them.
func assign(healthy []string, i int) string {
	if len(healthy) == 0 {
		return "local"
	}
	return healthy[i%len(healthy)]
}

// Placements reports, per shard, the worker the next mine would use and
// its push state.
func (p *Pool) Placements(dataset string, version uint64, numShards int) []ShardPlacement {
	healthy := p.reg.Healthy()
	out := make([]ShardPlacement, numShards)
	for i := range out {
		addr := assign(healthy, i)
		out[i].Worker = addr
		if addr != "local" {
			out[i].Pushed = p.tracker.Pushed(addr, ShardKey{Dataset: dataset, Version: version, Shard: i})
		}
	}
	return out
}

// Coordinator builds a registry-aware scatter-gather coordinator for
// one mine: each shard is assigned a healthy remote worker (wrapped in
// exact local failover) or, when no workers are usable, its
// plain LocalWorker. db must be the immutable snapshot the partition
// was computed for.
func (p *Pool) Coordinator(dataset string, version uint64, db *interval.Database, part *shard.Partition) *shard.Coordinator {
	k := part.NumShards()
	healthy := p.reg.Healthy()
	workers := make([]shard.Worker, k)
	sizes := make([]int, k)
	for i := 0; i < k; i++ {
		sub := part.SubDatabase(db, i)
		sizes[i] = len(part.Seqs(i))
		local := shard.NewLocalWorker(sub)
		addr := assign(healthy, i)
		if addr == "local" {
			workers[i] = local
			continue
		}
		data := NewShardData(ShardKey{Dataset: dataset, Version: version, Shard: i}, sub)
		workers[i] = &Failover{
			Primary:  NewRemoteWorker(addr, data, p.copt),
			Fallback: local,
			OnFailover: func(shardID int, err error) {
				p.met.Failovers.Inc()
				p.reg.MarkUnhealthy(addr, err)
				p.logger.Warn("remote worker unavailable; re-mining shard locally",
					"worker", addr, "shard", shardID, "err", err)
			},
		}
	}
	return shard.NewWithWorkers(workers, sizes)
}
