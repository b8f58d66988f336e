package remote

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"tpminer/internal/interval"
	"tpminer/internal/obs"
	"tpminer/internal/shard"
)

const (
	// DefaultProbeInterval is the health-probe cadence NewPool uses
	// when given 0.
	DefaultProbeInterval = 2 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
)

// Pool owns the client side of a distributed deployment: the health of
// the configured workers, which worker holds which shard version (so
// each worker receives each shard version exactly once), and the
// coordinators individual mines run through. Workers start healthy
// (optimistically: a dead one fails its first RPC, fails over, and is
// demoted), are demoted on a failed probe or a failed RPC, and are
// re-admitted when a probe succeeds again.
type Pool struct {
	addrs  []string
	copt   ClientOptions
	logger *slog.Logger
	pushed *pushTracker

	mu      sync.Mutex
	healthy map[string]bool
	lastErr map[string]string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewPool creates a pool over the configured worker addresses and
// probes their health every probeEvery: 0 means DefaultProbeInterval,
// and a negative interval disables the probe loop (workers are still
// demoted on failed RPCs). copt configures every worker client, and its
// Metrics receive all remote instrumentation. logger may be nil
// (logging disabled). Close must be called to stop the loop. Each
// address is trimmed of trailing slashes once, here, so health, push
// state and placements key a worker by the base URL its clients record
// pushes under.
func NewPool(addrs []string, probeEvery time.Duration, copt ClientOptions, logger *slog.Logger) *Pool {
	if probeEvery == 0 {
		probeEvery = DefaultProbeInterval
	}
	if logger == nil {
		logger = obs.Discard()
	}
	p := &Pool{
		addrs:   make([]string, len(addrs)),
		copt:    copt.withDefaults(),
		logger:  logger,
		pushed:  newPushTracker(),
		healthy: make(map[string]bool, len(addrs)),
		lastErr: make(map[string]string, len(addrs)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i, a := range addrs {
		p.addrs[i] = strings.TrimRight(a, "/")
		p.healthy[p.addrs[i]] = true
	}
	p.copt.Metrics.WorkersUp.Set(int64(len(p.addrs)))
	p.copt.Metrics.Workers.Set(int64(len(p.addrs)))
	if probeEvery > 0 {
		go p.probeLoop(probeEvery)
	} else {
		close(p.done)
	}
	return p
}

// Close stops the probe loop and waits for it to exit. Safe to call
// more than once.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Pool) probeLoop(every time.Duration) {
	defer close(p.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probe(context.Background())
		}
	}
}

// probe checks every worker once, concurrently, and updates health: a
// 200 from /v1/worker/healthz re-admits, anything else demotes.
func (p *Pool) probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, addr := range p.addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			p.setHealth(addr, p.probeWorker(ctx, addr))
		}(addr)
	}
	wg.Wait()
}

func (p *Pool) probeWorker(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/v1/worker/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.copt.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe: HTTP %d", resp.StatusCode)
	}
	return nil
}

// setHealth applies one observation, a nil err re-admitting and any
// other demoting, and logs transitions.
func (p *Pool) setHealth(addr string, err error) {
	p.mu.Lock()
	was := p.healthy[addr]
	now := err == nil
	p.healthy[addr] = now
	if err != nil {
		p.lastErr[addr] = err.Error()
	} else {
		p.lastErr[addr] = ""
	}
	var up int64
	for _, h := range p.healthy {
		if h {
			up++
		}
	}
	p.mu.Unlock()
	if was != now {
		if now {
			p.logger.Info("worker re-admitted", "worker", addr)
		} else {
			p.logger.Warn("worker marked unhealthy", "worker", addr, "err", err)
		}
	}
	p.copt.Metrics.WorkersUp.Set(up)
}

// healthyAddrs returns the usable workers in configuration order
// (stable, so shard assignment is deterministic for a given membership).
func (p *Pool) healthyAddrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.addrs))
	for _, a := range p.addrs {
		if p.healthy[a] {
			out = append(out, a)
		}
	}
	return out
}

// WorkerStatus is one worker's health, served by the shards debug
// endpoint and the readiness body.
type WorkerStatus struct {
	Addr      string `json:"addr"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
}

// PoolStatus summarizes membership for readiness bodies.
type PoolStatus struct {
	Healthy int            `json:"healthy"`
	Total   int            `json:"total"`
	Workers []WorkerStatus `json:"workers"`
}

// Status returns every worker's state in configuration order.
func (p *Pool) Status() PoolStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStatus{Total: len(p.addrs), Workers: make([]WorkerStatus, len(p.addrs))}
	for i, a := range p.addrs {
		st.Workers[i] = WorkerStatus{Addr: a, Healthy: p.healthy[a], LastError: p.lastErr[a]}
		if p.healthy[a] {
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
	healthy := p.healthyAddrs()
	out := make([]ShardPlacement, numShards)
	for i := range out {
		addr := assign(healthy, i)
		out[i].Worker = addr
		if addr != "local" {
			_, out[i].Pushed = p.pushed.last(addr, ShardKey{Dataset: dataset, Version: version, Shard: i})
		}
	}
	return out
}

// Coordinator builds a scatter-gather coordinator for one mine: each
// shard is assigned a healthy remote worker, which fails over to a
// LocalWorker over the same shard, or, when no workers are usable, that
// plain LocalWorker. db must be the immutable snapshot the partition
// was computed for.
func (p *Pool) Coordinator(dataset string, version uint64, db *interval.Database, part *shard.Partition) *shard.Coordinator {
	k := part.NumShards()
	healthy := p.healthyAddrs()
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
		workers[i] = &failover{pool: p, addr: addr, remote: newRemoteWorker(addr, data, p.copt, p.pushed), local: local}
	}
	return shard.NewWithWorkers(workers, sizes)
}

// failover mines one shard on its remote worker and, when that worker
// proves unavailable, re-runs the identical request on local, a
// LocalWorker over the very same shard sub-database. Because the
// request, the options, and the data are identical, the local answer is
// the one the worker would have produced, so failover is invisible in
// the merged result: results stay byte-identical to all-local and to
// serial mining.
//
// Failover never fires when the caller's context is already done (the
// failure is then the caller's cancellation, not the worker's fault,
// and the fan-out cancels sibling shards on first error, so re-mining
// would waste work on a request that already failed) nor on permanent
// request errors, which the local worker would reproduce anyway.
type failover struct {
	pool   *Pool
	addr   string // the worker's configured address, its health key
	remote *RemoteWorker
	local  *shard.LocalWorker
}

// WorkerAddr names the remote worker; fan-out errors that survive
// failover come from the local path and are attributed by its own
// address.
func (f *failover) WorkerAddr() string { return f.remote.WorkerAddr() }

// failsOver reports whether err sends the request to the local worker.
// When it does, the failover is counted, the worker demoted without
// waiting for a probe, and the event logged, before the local mine.
func (f *failover) failsOver(ctx context.Context, shardID int, err error) bool {
	if err == nil || ctx.Err() != nil || !IsUnavailable(err) {
		return false
	}
	f.pool.copt.Metrics.Failovers.Inc()
	f.pool.setHealth(f.addr, err)
	f.pool.logger.Warn("remote worker unavailable; re-mining shard locally",
		"worker", f.addr, "shard", shardID, "err", err)
	return true
}

// Mine implements shard.Worker.
func (f *failover) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	resp, err := f.remote.Mine(ctx, req)
	if !f.failsOver(ctx, req.Shard, err) {
		return resp, err
	}
	return f.local.Mine(ctx, req)
}

// Count implements shard.Worker.
func (f *failover) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	resp, err := f.remote.Count(ctx, req)
	if !f.failsOver(ctx, req.Shard, err) {
		return resp, err
	}
	return f.local.Count(ctx, req)
}

// pushTracker remembers which shard version, and which digest, each
// worker was last pushed, keyed (worker, dataset, shard). Versions are
// monotone, so storing only the latest bounds the map at workers ×
// datasets × shards. A pool shares one across its workers and requests,
// so a shard is re-pushed only on a version change or after the worker
// reports it missing, and a push of other bytes can name the digest it
// replaces.
type pushTracker struct {
	mu     sync.Mutex
	pushed map[pushKey]pushed
}

type pushKey struct {
	addr    string
	dataset string
	shard   int
}

type pushed struct {
	version uint64
	digest  string
}

func newPushTracker() *pushTracker {
	return &pushTracker{pushed: make(map[pushKey]pushed)}
}

// last returns the digest last pushed to addr for k's dataset and shard,
// and whether it was pushed for exactly k's version.
func (t *pushTracker) last(addr string, k ShardKey) (digest string, current bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pushed[pushKey{addr, k.Dataset, k.Shard}]
	return p.digest, ok && p.version == k.Version
}

func (t *pushTracker) mark(addr string, k ShardKey, digest string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pushed[pushKey{addr, k.Dataset, k.Shard}] = pushed{k.Version, digest}
}

func (t *pushTracker) invalidate(addr string, k ShardKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.pushed, pushKey{addr, k.Dataset, k.Shard})
}
