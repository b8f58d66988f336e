package remote

import (
	"context"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/shard"
	"tpminer/internal/shard/workertest"
)

// minedRows is a response's patterns with their supports, an empty list
// and nil alike read as nil: the server renders the same rows from
// either.
func minedRows(resp *shard.MineShardResponse) any {
	if len(resp.Temporal) > 0 {
		return resp.Temporal
	}
	if len(resp.Coinc) > 0 {
		return resp.Coinc
	}
	return nil
}

// oracleRows mines db by brute force at opt, in minedRows' form; for a
// top-k mine, its sorted result is cut at k.
func oracleRows(t *testing.T, db *interval.Database, kind core.Kind, topK int, opt core.Options) any {
	t.Helper()
	var (
		r   core.Result
		err error
	)
	if kind == core.KindTemporal {
		r.Temporal, _, err = baseline.BruteForceTemporal(db, opt)
	} else {
		r.Coinc, _, err = baseline.BruteForceCoincidence(db, opt)
	}
	if err != nil {
		t.Fatalf("brute force: %v", err)
	}
	if topK > 0 {
		r.Temporal = r.Temporal[:min(topK, len(r.Temporal))]
		r.Coinc = r.Coinc[:min(topK, len(r.Coinc))]
	}
	return minedRows(&r)
}

// checkFiltered asserts what a closed or maximal filter of all may keep:
// rows of all with their supports, such that every dropped pattern is
// contained, by sub, in a kept one — of equal support, when closed.
func checkFiltered[P pattern.Pattern](t *testing.T, which string, all, kept []pattern.Result[P], sub func(p, q P) bool) {
	t.Helper()
	support := make(map[string]int, len(all))
	for _, r := range all {
		support[r.Pattern.Key()] = r.Support
	}
	isKept := make(map[string]bool, len(kept))
	for _, r := range kept {
		if s, ok := support[r.Pattern.Key()]; !ok || s != r.Support {
			t.Fatalf("%s filter kept %v with support %d, which is no unfiltered row", which, r.Pattern, r.Support)
		}
		isKept[r.Pattern.Key()] = true
	}
	for _, r := range all {
		if isKept[r.Pattern.Key()] {
			continue
		}
		if !slices.ContainsFunc(kept, func(q pattern.Result[P]) bool {
			return (which != "closed" || q.Support == r.Support) && sub(r.Pattern, q.Pattern)
		}) {
			t.Fatalf("%s filter dropped %v (support %d), which no kept pattern contains", which, r.Pattern, r.Support)
		}
	}
}

// FuzzMinePathsAgree is a differential oracle across the paths one mine
// can take: the one-worker coordinator (the serial miner), the
// in-process coordinator over 3 shards, and a pool coordinator over two
// loopback workers, the first of which drops every mine connection, so
// each input also fails shard 0 over to a local re-mine. All three must
// return the same patterns with the same supports in the same order as
// the brute-force oracle. Each path's result then goes through the
// closed and the maximal filter, whose rows must agree across paths and
// keep only what the filter's definition allows.
func FuzzMinePathsAgree(f *testing.F) {
	drop := &killableHandler{inner: NewWorkerServer(WorkerConfig{}).Handler()}
	drop.kill.Store(true)
	dropping := httptest.NewServer(drop)
	f.Cleanup(dropping.Close)
	healthy := httptest.NewServer(NewWorkerServer(WorkerConfig{}).Handler())
	f.Cleanup(healthy.Close)
	pool := NewPool([]string{dropping.URL, healthy.URL}, -1, ClientOptions{Retry: fastRetry}, nil)
	f.Cleanup(pool.Close)
	ctx := context.Background()
	var version uint64
	f.Fuzz(func(t *testing.T, data []byte) {
		db, kind, topK, opt := workertest.MineInput(data)
		// The last input's failover demoted the dropping worker; the
		// probe re-admits it, since it answers health checks.
		pool.probe(ctx)
		failovers := pool.copt.Metrics.Failovers.Value()
		version++
		part := shard.New(db, 3, 1)
		paths := []struct {
			name string
			co   *shard.Coordinator
		}{
			{"serial", shard.NewWithWorkers([]shard.Worker{shard.NewLocalWorker(db)}, []int{db.Len()})},
			{"3 local shards", shard.NewLocal(db, part)},
			{"pool with failover", pool.Coordinator("fuzz", version, db, part)},
		}
		results := make([]*core.Result, len(paths))
		for i, p := range paths {
			resp, err := p.co.Mine(ctx, kind, topK, opt)
			if err != nil {
				t.Fatalf("%s: %s mine (top_k %d, %+v): %v", p.name, kind, topK, opt, err)
			}
			results[i] = resp
			if got, want := minedRows(resp), minedRows(results[0]); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s differs from serial for %s mine (top_k %d, %+v) of %+v:\ngot:  %+v\nwant: %+v",
					p.name, kind, topK, opt, db.Sequences, got, want)
			}
		}
		if pool.copt.Metrics.Failovers.Value() == failovers {
			t.Fatal("the pool mined without failing over; the dropping worker was not used")
		}
		if got, want := minedRows(results[0]), oracleRows(t, db, kind, topK, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("serial differs from brute force for %s mine (top_k %d, %+v) of %+v:\ngot:  %+v\nwant: %+v",
				kind, topK, opt, db.Sequences, got, want)
		}
		for _, which := range []string{"closed", "maximal"} {
			var want any
			for i, p := range paths {
				kept := *results[i]
				if err := core.Filter(ctx, &kept, which); err != nil {
					t.Fatalf("%s: %s filter: %v", p.name, which, err)
				}
				if i == 0 {
					want = minedRows(&kept)
					checkFiltered(t, which, results[0].Temporal, kept.Temporal, core.SubPattern)
					checkFiltered(t, which, results[0].Coinc, kept.Coinc, core.SubCoincPattern)
				} else if got := minedRows(&kept); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s rows differ from serial for %s mine (top_k %d, %+v) of %+v:\ngot:  %+v\nwant: %+v",
						p.name, which, kind, topK, opt, db.Sequences, got, want)
				}
			}
		}
	})
}
