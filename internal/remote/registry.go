package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"tpminer/internal/obs"
)

// Registry defaults.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = time.Second
)

// RegistryConfig configures worker membership tracking.
type RegistryConfig struct {
	// ProbeInterval is the health-probe cadence. 0 means
	// DefaultProbeInterval; negative disables the probe loop (tests
	// drive ProbeNow directly).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. 0 means
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// HTTPClient issues probes. nil means http.DefaultClient.
	HTTPClient *http.Client
	// Logger may be nil (logging disabled).
	Logger *slog.Logger
	// Metrics receives the healthy/configured worker gauges; nil counts
	// on a private registry.
	Metrics *Metrics
}

// WorkerStatus is one worker's membership state, served by the shards
// debug endpoint and the readiness body.
type WorkerStatus struct {
	Addr      string `json:"addr"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"last_error,omitempty"`
}

// Registry tracks which configured workers are usable. Workers start
// healthy (optimistically — a dead one fails its first RPC, fails over,
// and is demoted), are marked unhealthy on failed probes or failed
// RPCs, and are re-admitted when a probe succeeds again.
type Registry struct {
	cfg    RegistryConfig
	logger *slog.Logger
	met    *Metrics
	addrs  []string

	mu      sync.Mutex
	healthy map[string]bool
	lastErr map[string]string

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRegistry creates a registry over the configured worker addresses
// and starts its probe loop (unless the interval is negative). Close
// must be called to stop the loop.
func NewRegistry(addrs []string, cfg RegistryConfig) *Registry {
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	r := &Registry{
		cfg:     cfg,
		logger:  cfg.Logger,
		met:     ensureMetrics(cfg.Metrics),
		addrs:   append([]string(nil), addrs...),
		healthy: make(map[string]bool, len(addrs)),
		lastErr: make(map[string]string, len(addrs)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, a := range r.addrs {
		r.healthy[a] = true
	}
	r.met.WorkersUp.Set(int64(len(r.addrs)))
	r.met.Workers.Set(int64(len(r.addrs)))
	if cfg.ProbeInterval > 0 {
		go r.probeLoop()
	} else {
		close(r.done)
	}
	return r
}

// Close stops the probe loop and waits for it to exit. Safe to call
// more than once.
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Registry) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbeNow(context.Background())
		}
	}
}

// ProbeNow probes every worker once, concurrently, and updates
// membership: a 200 from /v1/worker/healthz re-admits, anything else
// demotes. Exported so tests (and future admin endpoints) can force a
// membership refresh without waiting out the probe interval.
func (r *Registry) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, addr := range r.addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			err := r.probe(ctx, addr)
			r.setHealth(addr, err)
		}(addr)
	}
	wg.Wait()
}

func (r *Registry) probe(ctx context.Context, addr string) error {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/v1/worker/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := r.cfg.HTTPClient.Do(req)
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

// setHealth applies one observation and logs transitions.
func (r *Registry) setHealth(addr string, err error) {
	r.mu.Lock()
	was := r.healthy[addr]
	now := err == nil
	r.healthy[addr] = now
	if err != nil {
		r.lastErr[addr] = err.Error()
	} else {
		r.lastErr[addr] = ""
	}
	healthy := r.healthyLocked()
	r.mu.Unlock()
	if was != now {
		if now {
			r.logger.Info("worker re-admitted", "worker", addr)
		} else {
			r.logger.Warn("worker marked unhealthy", "worker", addr, "err", err)
		}
	}
	r.met.WorkersUp.Set(int64(healthy))
}

func (r *Registry) healthyLocked() (n int) {
	for _, h := range r.healthy {
		if h {
			n++
		}
	}
	return n
}

// MarkUnhealthy demotes a worker after a failed RPC, without waiting
// for the next probe; the probe loop re-admits it when it recovers.
func (r *Registry) MarkUnhealthy(addr string, err error) {
	if err == nil {
		err = errors.New("marked unhealthy")
	}
	r.setHealth(addr, err)
}

// Healthy returns the currently usable workers in configuration order
// (stable, so shard assignment is deterministic for a given membership).
func (r *Registry) Healthy() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.addrs))
	for _, a := range r.addrs {
		if r.healthy[a] {
			out = append(out, a)
		}
	}
	return out
}

// Snapshot returns every worker's state in configuration order.
func (r *Registry) Snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerStatus, len(r.addrs))
	for i, a := range r.addrs {
		out[i] = WorkerStatus{Addr: a, Healthy: r.healthy[a], LastError: r.lastErr[a]}
	}
	return out
}
