package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/obs"
	"tpminer/internal/resilience"
	"tpminer/internal/shard"
	"tpminer/internal/shard/workertest"
)

// fastRetry retries instantly so failure-path tests don't sleep.
var fastRetry = resilience.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}

// newLoopbackWorker spins up a WorkerServer over HTTP and returns a
// client for the given shard database.
func newLoopbackWorker(t *testing.T, db *interval.Database) *RemoteWorker {
	t.Helper()
	ws := NewWorkerServer(WorkerConfig{})
	ts := httptest.NewServer(ws.Handler())
	t.Cleanup(ts.Close)
	data := NewShardData(ShardKey{Dataset: "conf", Version: 1, Shard: 0}, db)
	return NewRemoteWorker(ts.URL, data, ClientOptions{Retry: fastRetry})
}

// TestRemoteWorkerConformance runs the shared Worker contract suite
// against the HTTP transport end to end (push, mine, count over a real
// loopback server).
func TestRemoteWorkerConformance(t *testing.T) {
	workertest.Run(t, workertest.Factory{
		New: func(t *testing.T, db *interval.Database) shard.Worker {
			return newLoopbackWorker(t, db)
		},
	})
}

// callCounter wraps a Worker and counts every call its caller makes, by
// operation and outcome: the oracle for what RemoteWorker records.
type callCounter struct {
	shard.Worker
	calls *obs.CounterVec
}

func outcomeOf(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

func (c callCounter) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	resp, err := c.Worker.Mine(ctx, req)
	c.calls.With(OpMine, outcomeOf(err)).Inc()
	return resp, err
}

func (c callCounter) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	resp, err := c.Worker.Count(ctx, req)
	c.calls.With(OpCount, outcomeOf(err)).Inc()
	return resp, err
}

// TestInstrumentedWorkerConformance runs the contract suite against
// RemoteWorkers that count their own RPCs into one shared registry:
// counting changes no result, and the registry holds exactly one count
// and one duration sample per call, under the call's outcome.
func TestInstrumentedWorkerConformance(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	calls := obs.NewRegistry().NewCounterVec("calls", "Calls made, by operation and outcome.", "op", "outcome")
	workertest.Run(t, workertest.Factory{
		New: func(t *testing.T, db *interval.Database) shard.Worker {
			ws := httptest.NewServer(NewWorkerServer(WorkerConfig{}).Handler())
			t.Cleanup(ws.Close)
			data := NewShardData(ShardKey{Dataset: "conf", Version: 1, Shard: 0}, db)
			return callCounter{NewRemoteWorker(ws.URL, data, ClientOptions{Retry: fastRetry, Metrics: met}), calls}
		},
	})
	for _, op := range []string{OpMine, OpCount} {
		var n uint64
		for _, outcome := range []string{"ok", "error"} {
			want := calls.With(op, outcome).Value()
			if want == 0 {
				t.Errorf("suite made no %s call with outcome %s; test is vacuous", op, outcome)
			}
			if got := met.RPCs.With(op, outcome).Value(); got != want {
				t.Errorf("tpmd_remote_rpcs_total{op=%q,outcome=%q} = %d, want %d", op, outcome, got, want)
			}
			n += want
		}
		if got := met.RPCDuration.With(op).Count(); got != n {
			t.Errorf("tpmd_remote_rpc_duration_seconds{op=%q} has %d samples, want %d", op, got, n)
		}
	}
}

// TestRemoteWorkerCountsLogicalCalls: a call that succeeds after a
// retry counts as one ok RPC, and the retry is counted on its own.
func TestRemoteWorkerCountsLogicalCalls(t *testing.T) {
	inner := NewWorkerServer(WorkerConfig{}).Handler()
	var failed atomic.Bool
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/mine") && failed.CompareAndSwap(false, true) {
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ws.Close()
	met := NewMetrics(obs.NewRegistry())
	w := NewRemoteWorker(ws.URL, NewShardData(ShardKey{Dataset: "d", Version: 1, Shard: 0}, workertest.DB()),
		ClientOptions{Retry: fastRetry, Metrics: met})
	if _, err := w.Mine(context.Background(), &shard.MineShardRequest{Kind: core.KindTemporal,
		Opt: core.Options{MinCount: 2}}); err != nil {
		t.Fatalf("mine: %v", err)
	}
	if !failed.Load() {
		t.Fatal("no attempt failed; test is vacuous")
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{`tpmd_remote_rpcs_total{op="mine",outcome="ok"}`, met.RPCs.With(OpMine, "ok").Value(), 1},
		{`tpmd_remote_rpcs_total{op="mine",outcome="error"}`, met.RPCs.With(OpMine, "error").Value(), 0},
		{`tpmd_remote_retries_total{op="mine"}`, met.Retries.With(OpMine).Value(), 1},
		{`tpmd_remote_rpc_duration_seconds_count{op="mine"}`, met.RPCDuration.With(OpMine).Count(), 1},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestFailoverWorkerConformance proves the pool's failover worker is
// exact even when its remote worker is permanently unreachable: every
// call lands on the local worker and the contract holds unchanged.
func TestFailoverWorkerConformance(t *testing.T) {
	const dead = "http://127.0.0.1:1" // reserved port: connection refused
	workertest.Run(t, workertest.Factory{
		New: func(t *testing.T, db *interval.Database) shard.Worker {
			pool := NewPool([]string{dead}, -1, ClientOptions{Retry: fastRetry}, nil)
			t.Cleanup(pool.Close)
			data := NewShardData(ShardKey{Dataset: "conf", Version: 1, Shard: 0}, db)
			return &failover{pool: pool, addr: dead, remote: newRemoteWorker(dead, data, pool.copt, pool.pushed),
				local: shard.NewLocalWorker(db)}
		},
	})
}
