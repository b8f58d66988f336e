package remote

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/resilience"
	"tpminer/internal/shard"
	"tpminer/internal/shard/workertest"
)

// countingHandler wraps a worker handler and counts shard pushes.
type countingHandler struct {
	inner  http.Handler
	pushes atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/worker/shards/") {
		h.pushes.Add(1)
	}
	h.inner.ServeHTTP(w, r)
}

// TestShardPushedOncePerVersion: with a shared tracker, repeated mines
// of the same (dataset, version, shard) push exactly once; a version
// bump pushes exactly once more.
func TestShardPushedOncePerVersion(t *testing.T) {
	ws := NewWorkerServer(WorkerConfig{})
	ch := &countingHandler{inner: ws.Handler()}
	ts := httptest.NewServer(ch)
	defer ts.Close()

	db := workertest.DB()
	tracker := NewPushTracker()
	opt := ClientOptions{Retry: fastRetry, Tracker: tracker}
	req := &shard.MineShardRequest{Kind: shard.KindTemporal, Opt: core.Options{MinCount: 2, KeepOccurrences: true}}

	w1 := NewRemoteWorker(ts.URL, NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, db), opt)
	for i := 0; i < 3; i++ {
		if _, err := w1.Mine(context.Background(), req); err != nil {
			t.Fatalf("mine v1 #%d: %v", i, err)
		}
	}
	if got := ch.pushes.Load(); got != 1 {
		t.Errorf("after 3 mines of one version: %d pushes, want 1", got)
	}

	w2 := NewRemoteWorker(ts.URL, NewShardData(ShardKey{Dataset: "d", Version: 2, Shard: 0}, db), opt)
	if _, err := w2.Mine(context.Background(), req); err != nil {
		t.Fatalf("mine v2: %v", err)
	}
	if got := ch.pushes.Load(); got != 2 {
		t.Errorf("after version bump: %d pushes, want 2", got)
	}
	if ws.Shards() != 1 {
		t.Errorf("worker caches %d shards, want 1 (old version evicted)", ws.Shards())
	}
}

// TestWorkerCapsParallel: a mine body's Parallel is untrusted input.
// The worker caps it at its own cores, so an absurd value mines the same
// result as a serial request instead of sizing a worker pool by it.
func TestWorkerCapsParallel(t *testing.T) {
	ws := NewWorkerServer(WorkerConfig{})
	ts := httptest.NewServer(ws.Handler())
	defer ts.Close()
	w := NewRemoteWorker(ts.URL, NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, workertest.DB()),
		ClientOptions{Retry: fastRetry})
	mine := func(parallel int) *shard.MineShardResponse {
		t.Helper()
		resp, err := w.Mine(context.Background(), &shard.MineShardRequest{Kind: shard.KindTemporal,
			Opt: core.Options{MinCount: 2, Parallel: parallel}})
		if err != nil {
			t.Fatalf("mine with Parallel=%d: %v", parallel, err)
		}
		return resp
	}
	serial, huge := mine(0), mine(math.MaxInt)
	if len(serial.Temporal) == 0 || !reflect.DeepEqual(huge.Temporal, serial.Temporal) {
		t.Fatalf("Parallel=MaxInt mined %d patterns, serial %d", len(huge.Temporal), len(serial.Temporal))
	}
}

// TestWorkerRestartRecovery: a worker that lost its cache (restart)
// answers shard_not_loaded; the client re-pushes and completes the same
// call without surfacing an error.
func TestWorkerRestartRecovery(t *testing.T) {
	ws := NewWorkerServer(WorkerConfig{})
	var handler atomic.Value
	handler.Store(ws.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	db := workertest.DB()
	w := NewRemoteWorker(ts.URL, NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, db),
		ClientOptions{Retry: fastRetry})
	req := &shard.MineShardRequest{Kind: shard.KindTemporal, Opt: core.Options{MinCount: 2, KeepOccurrences: true}}
	if _, err := w.Mine(context.Background(), req); err != nil {
		t.Fatalf("mine #1: %v", err)
	}
	// "Restart" the worker: same address, empty cache.
	handler.Store(NewWorkerServer(WorkerConfig{}).Handler())
	if _, err := w.Mine(context.Background(), req); err != nil {
		t.Fatalf("mine after worker restart: %v", err)
	}
}

// TestRegistryTransitions: a probe failure demotes a worker, recovery
// re-admits it, and Healthy() keeps configuration order.
func TestRegistryTransitions(t *testing.T) {
	var broken atomic.Bool
	ws := NewWorkerServer(WorkerConfig{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		ws.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := NewRegistry([]string{ts.URL}, RegistryConfig{ProbeInterval: -1})
	defer reg.Close()
	if got := reg.Healthy(); len(got) != 1 {
		t.Fatalf("initial healthy = %v, want 1 worker (optimistic start)", got)
	}

	broken.Store(true)
	reg.ProbeNow(context.Background())
	if got := reg.Healthy(); len(got) != 0 {
		t.Fatalf("after failed probe: healthy = %v, want none", got)
	}
	st := reg.Snapshot()
	if len(st) != 1 || st[0].Healthy || st[0].LastError == "" {
		t.Fatalf("snapshot after failure: %+v", st)
	}

	broken.Store(false)
	reg.ProbeNow(context.Background())
	if got := reg.Healthy(); len(got) != 1 {
		t.Fatalf("after recovery probe: healthy = %v, want re-admitted", got)
	}

	reg.MarkUnhealthy(ts.URL, errors.New("rpc failed"))
	if got := reg.Healthy(); len(got) != 0 {
		t.Fatalf("after MarkUnhealthy: healthy = %v, want none", got)
	}
}

// killableHandler hijacks and slams the TCP connection on mine requests
// while armed — the sharpest version of a worker dying mid-request.
type killableHandler struct {
	inner http.Handler
	kill  atomic.Bool
}

func (h *killableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.kill.Load() && strings.HasSuffix(r.URL.Path, "/mine") {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server does not support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestFailoverMidMineExact: a worker that drops the connection on every
// mine attempt triggers failover, and the coordinator's merged result is
// byte-identical (patterns, supports, order, stats counters) to the
// all-local coordinator's.
func TestFailoverMidMineExact(t *testing.T) {
	db := workertest.DB()
	part := shard.New(db, 3, 1)
	if part.NumShards() < 2 {
		t.Fatalf("partition has %d shards; test needs >= 2", part.NumShards())
	}

	ws := NewWorkerServer(WorkerConfig{})
	kh := &killableHandler{inner: ws.Handler()}
	ts := httptest.NewServer(kh)
	defer ts.Close()
	kh.kill.Store(true)

	var failovers atomic.Int64
	pool := NewPool([]string{ts.URL}, PoolConfig{
		Client:   ClientOptions{Retry: fastRetry},
		Registry: RegistryConfig{ProbeInterval: -1},
	})
	defer pool.Close()
	co := pool.Coordinator("d", 1, db, part)
	// Count failovers through the wrapper hooks.
	for _, w := range co.Workers {
		if fo, ok := w.(*Failover); ok {
			prev := fo.OnFailover
			fo.OnFailover = func(shardID int, err error) {
				failovers.Add(1)
				if prev != nil {
					prev(shardID, err)
				}
			}
		}
	}

	opt := core.Options{MinCount: 3}
	got, gotStats, err := co.MineTemporal(context.Background(), opt)
	if err != nil {
		t.Fatalf("mine through failover: %v", err)
	}
	if failovers.Load() == 0 {
		t.Fatal("no failover fired; the kill switch did not engage")
	}

	ref := shard.NewLocal(db, part)
	want, wantStats, err := ref.MineTemporal(context.Background(), opt)
	if err != nil {
		t.Fatalf("local mine: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failover result differs from local:\ngot:  %+v\nwant: %+v", got, want)
	}
	gotStats.Elapsed, wantStats.Elapsed = 0, 0
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("failover stats differ from local:\ngot:  %+v\nwant: %+v", gotStats, wantStats)
	}
	// The failed worker was demoted without waiting for a probe.
	if got := pool.Registry().Healthy(); len(got) != 0 {
		t.Errorf("failed worker still listed healthy: %v", got)
	}
}

// TestPoolCoordinatorEquivalence: a healthy 2-worker pool produces
// results identical to the all-local coordinator across kinds and
// top-k, and pushes each shard to exactly one worker.
func TestPoolCoordinatorEquivalence(t *testing.T) {
	db := workertest.DB()
	part := shard.New(db, 3, 1)

	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(NewWorkerServer(WorkerConfig{}).Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool := NewPool(urls, PoolConfig{
		Client:   ClientOptions{Retry: fastRetry},
		Registry: RegistryConfig{ProbeInterval: -1},
	})
	defer pool.Close()

	ctx := context.Background()
	for _, tc := range []struct {
		name string
		kind shard.Kind
		topK int
		opt  core.Options
	}{
		{"temporal", shard.KindTemporal, 0, core.Options{MinCount: 2}},
		{"coincidence", shard.KindCoincidence, 0, core.Options{MinCount: 2}},
		{"temporal-topk", shard.KindTemporal, 3, core.Options{MinCount: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := pool.Coordinator("d", 1, db, part).Mine(ctx, tc.kind, tc.topK, tc.opt)
			if err != nil {
				t.Fatalf("remote: %v", err)
			}
			want, err := shard.NewLocal(db, part).Mine(ctx, tc.kind, tc.topK, tc.opt)
			if err != nil {
				t.Fatalf("local: %v", err)
			}
			got.Stats.Elapsed, want.Stats.Elapsed = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("results differ:\nremote: %+v\nlocal:  %+v", got, want)
			}
		})
	}

	// Placements reflect the deterministic assignment and push state.
	pl := pool.Placements("d", 1, part.NumShards())
	for i, p := range pl {
		if p.Worker != urls[i%len(urls)] {
			t.Errorf("shard %d assigned to %s, want %s", i, p.Worker, urls[i%len(urls)])
		}
		if !p.Pushed {
			t.Errorf("shard %d not marked pushed after mining", i)
		}
	}
}

// flakyHandler injects faults from a seeded resilience profile in front
// of a worker: an injected error kills the TCP connection (mine/count)
// or rejects with 503; injected latency delays the response.
type flakyHandler struct {
	inner http.Handler
	inj   resilience.Injector
}

// opForPath maps worker routes onto injector operations.
func opForPath(path string) resilience.Op {
	switch {
	case strings.HasSuffix(path, "/mine"):
		return resilience.Op("worker_mine")
	case strings.HasSuffix(path, "/count"):
		return resilience.Op("worker_count")
	default:
		return resilience.Op("worker_push")
	}
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := h.inj.Fault(opForPath(r.URL.Path))
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Err != nil {
		if hj, ok := w.(http.Hijacker); ok && errors.Is(f.Err, syscall.ECONNRESET) {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		http.Error(w, f.Err.Error(), http.StatusServiceUnavailable)
		return
	}
	h.inner.ServeHTTP(w, r)
}

// TestChaosFlakyWorkers: under a seeded fault schedule — connection
// resets, 503s, and latency spikes on every worker route — every mine
// either succeeds with exactly the local coordinator's result (retries
// and failover absorb the faults) or fails loudly. Exactness may never
// degrade silently.
func TestChaosFlakyWorkers(t *testing.T) {
	db := workertest.DB()
	part := shard.New(db, 3, 1)
	ref := shard.NewLocal(db, part)
	opt := core.Options{MinCount: 2}
	want, _, err := ref.MineTemporal(context.Background(), opt)
	if err != nil {
		t.Fatalf("baseline mine: %v", err)
	}

	const seed = 42
	profile := resilience.NewProfile(seed).
		Add(resilience.Op("worker_mine"), resilience.FaultRule{Prob: 0.3, Err: syscall.ECONNRESET}).
		Add(resilience.Op("worker_count"), resilience.FaultRule{Prob: 0.2, Err: syscall.EIO}).
		Add(resilience.Op("worker_push"), resilience.FaultRule{Prob: 0.2, Err: syscall.EIO}).
		Add(resilience.OpAll, resilience.FaultRule{Prob: 0.2, Delay: 2 * time.Millisecond})

	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(&flakyHandler{inner: NewWorkerServer(WorkerConfig{}).Handler(), inj: profile})
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	pool := NewPool(urls, PoolConfig{
		Client:   ClientOptions{Retry: fastRetry},
		Registry: RegistryConfig{ProbeInterval: -1},
	})
	defer pool.Close()

	for i := 0; i < 20; i++ {
		// Workers demoted by failovers get re-admitted between rounds,
		// like the probe loop would do in production.
		pool.Registry().ProbeNow(context.Background())
		got, _, err := pool.Coordinator("d", 1, db, part).MineTemporal(context.Background(), opt)
		if err != nil {
			// A loud, attributed failure is acceptable under chaos; a
			// wrong result is not. (seed=%d reproduces the schedule.)
			var se *shard.ShardError
			if !errors.As(err, &se) {
				t.Fatalf("round %d: error not attributed to a shard/worker (seed=%d): %v", i, seed, err)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: result differs from baseline under faults (seed=%d):\ngot:  %+v\nwant: %+v",
				i, seed, got, want)
		}
	}
}

// TestRPCErrorClassification pins the retry/failover dispatch surface.
func TestRPCErrorClassification(t *testing.T) {
	unreachable := &RPCError{Op: OpMine, Worker: "http://w", Err: errors.New("dial: connection refused")}
	if !IsUnavailable(unreachable) {
		t.Error("network error not classified unavailable")
	}
	if resilience.Classify(unreachable) != resilience.ClassTransient {
		t.Error("network error classified permanent")
	}
	badReq := &RPCError{Op: OpMine, Worker: "http://w", Status: 400, Err: errors.New("bad"), permanent: true}
	if IsUnavailable(badReq) {
		t.Error("400 classified unavailable; failover would mask a request bug")
	}
	if resilience.Classify(badReq) != resilience.ClassPermanent {
		t.Error("400 not classified permanent; retrying would be useless")
	}
	notLoaded := &RPCError{Op: OpMine, Worker: "http://w", Status: 404, Code: codeShardNotLoaded, Err: errors.New("missing")}
	if resilience.Classify(notLoaded) != resilience.ClassTransient {
		t.Error("shard_not_loaded not retryable; recovery after worker restart depends on it")
	}
}

// TestShardKeyPath pins the push path encoding, including escaping.
func TestShardKeyPath(t *testing.T) {
	k := ShardKey{Dataset: "a b/c", Version: 7, Shard: 2}
	want := "/v1/worker/shards/a%20b%2Fc/7/2"
	if got := k.path(); got != want {
		t.Errorf("path = %q, want %q", got, want)
	}
}
