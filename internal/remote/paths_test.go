package remote

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/shard"
)

// mineInput decodes fuzz bytes into a database of at most 8 sequences
// over the symbols A-D and one mine request: temporal or coincidence, a
// min_count of 1-4, a top_k of 0-5 and, for temporal mining, a max_span
// and a max_gap (0 is unbounded). Bytes past the end read as 0.
func mineInput(data []byte) (db *interval.Database, kind shard.Kind, topK int, opt core.Options) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	h := next()
	kind, topK = shard.KindTemporal, h>>1%6
	if h&1 == 1 {
		kind = shard.KindCoincidence
	}
	opt.MinCount = 1 + next()%4
	if kind == shard.KindTemporal {
		opt.MaxSpan, opt.MaxGap = interval.Time(next()%16), interval.Time(next()%8)
	}
	db = &interval.Database{Sequences: make([]interval.Sequence, next()%9)}
	for s := range db.Sequences {
		seq := &db.Sequences[s]
		seq.ID = fmt.Sprintf("s%d", s)
		for n := next() % 6; n > 0; n-- {
			b, start := next(), interval.Time(next()%16)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + b%4)), Start: start, End: start + interval.Time(b>>2%8),
			})
		}
	}
	return db, kind, topK, opt
}

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

// FuzzMinePathsAgree is a differential oracle across the paths one mine
// can take: the one-worker coordinator (the serial miner), the
// in-process coordinator over 3 shards, and a pool coordinator over two
// loopback workers, the first of which drops every mine connection, so
// each input also fails shard 0 over to a local re-mine. All three must
// return the same patterns with the same supports in the same order.
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
		db, kind, topK, opt := mineInput(data)
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
		var want any
		for i, p := range paths {
			resp, err := p.co.Mine(ctx, kind, topK, opt)
			if err != nil {
				t.Fatalf("%s: %s mine (top_k %d, %+v): %v", p.name, kind, topK, opt, err)
			}
			if i == 0 {
				want = minedRows(resp)
			} else if got := minedRows(resp); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s differs from serial for %s mine (top_k %d, %+v) of %+v:\ngot:  %+v\nwant: %+v",
					p.name, kind, topK, opt, db.Sequences, got, want)
			}
		}
		if pool.copt.Metrics.Failovers.Value() == failovers {
			t.Fatal("the pool mined without failing over; the dropping worker was not used")
		}
	})
}
