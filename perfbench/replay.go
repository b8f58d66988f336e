package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"tpminer/internal/api"
	"tpminer/internal/cache"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
	"tpminer/internal/jobs"
	"tpminer/internal/pattern"
	"tpminer/internal/persist"
	"tpminer/internal/remote"
	"tpminer/internal/seqdb"
	"tpminer/internal/server"
	"tpminer/internal/shard"
)

// The traced run replays a workload's operations in this process,
// calling each layer's public functions the way tpmd calls them on that
// path and recording a span around every call. Span names are
// "<layer>.<call>"; the per-layer metrics are medians over the replayed
// operations of the spans' self times.

// replayCounts holds the exact per-operation counts the replay observes.
type replayCounts struct {
	remote     bool
	shards     int       // shards of the mined partition
	skew       float64   // its max/min load ratio
	candidates []float64 // distinct raw patterns the shards reported
	counted    []float64 // support-completion counts the merge issued
	patterns   []float64 // final patterns
}

// timedWorker records a span around each call of the shard worker it
// wraps and keeps the last mine response for candidate counting.
type timedWorker struct {
	inner  shard.Worker
	tr     *tracer
	op     int
	parent int
	resp   *shard.MineShardResponse
}

func (t *timedWorker) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	id := t.tr.begin(t.op, t.parent, "shard.worker_mine")
	resp, err := t.inner.Mine(ctx, req)
	t.tr.end(id)
	t.resp = resp
	return resp, err
}

func (t *timedWorker) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	id := t.tr.begin(t.op, t.parent, "shard.worker_count")
	resp, err := t.inner.Count(ctx, req)
	t.tr.end(id)
	return resp, err
}

// mergeRecorder is the coordinator's shard.Metrics sink.
type mergeRecorder struct {
	mu      sync.Mutex
	counted int
}

func (m *mergeRecorder) FanOut(int)                   {}
func (m *mergeRecorder) ShardDone(int, time.Duration) {}

func (m *mergeRecorder) Merged(_, counted int) {
	m.mu.Lock()
	m.counted += counted
	m.mu.Unlock()
}

// take returns the counts recorded since the last take.
func (m *mergeRecorder) take() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counted
	m.counted = 0
	return c
}

// miner builds the coordinator one mine runs through and mines with it,
// the way tpmd does for a whole-dataset or windowed request.
type miner struct {
	tr      *tracer
	rec     mergeRecorder
	worker  string       // remote worker base URL; empty mines in process
	hc      *http.Client // client for the remote worker
	version uint64       // shard-push version for remote mines

	last     []*timedWorker // the workers of the last mine, until record
	lastRows int
}

// mine runs the coordinator over db's partition inside a "shard.mine"
// span, then renders the response rows inside "server.rows"; for remote
// mines it first encodes every shard's push payload inside
// "remote.encode" spans.
func (m *miner) mine(ctx context.Context, op, parent int, db *interval.Database, part *shard.Partition, spec api.MineSpec) (*server.MineResponse, error) {
	k := part.NumShards()
	tws := make([]*timedWorker, k)
	sizes := make([]int, k)
	workers := make([]shard.Worker, k)
	for i := range tws {
		sub := part.SubDatabase(db, i)
		sizes[i] = len(part.Seqs(i))
		var w shard.Worker = shard.NewLocalWorker(sub)
		if m.worker != "" {
			data := remote.NewShardData(remote.ShardKey{Dataset: "replay", Version: m.version, Shard: i}, sub)
			if err := m.tr.run(op, parent, "remote.encode", func(int) error {
				_, _, err := data.Encode()
				return err
			}); err != nil {
				return nil, err
			}
			w = remote.NewRemoteWorker(m.worker, data, remote.ClientOptions{HTTPClient: m.hc})
		}
		tws[i] = &timedWorker{inner: w, tr: m.tr, op: op}
		workers[i] = tws[i]
	}
	var (
		rs []pattern.TemporalResult
		st core.Stats
	)
	if err := m.tr.run(op, parent, "shard.mine", func(id int) (err error) {
		for _, t := range tws {
			t.parent = id
		}
		co := shard.NewWithWorkers(workers, sizes)
		co.Met = &m.rec
		rs, st, err = co.MineTemporal(ctx, spec.Options(0))
		return err
	}); err != nil {
		return nil, err
	}
	resp := &server.MineResponse{Dataset: "bench", Type: api.ModeTemporal}
	_ = m.tr.run(op, parent, "server.rows", func(int) error {
		resp.Patterns = minedPatterns(rs)
		resp.Count = len(resp.Patterns)
		resp.Stats = server.MineStats{Sequences: st.Sequences, MinCount: st.MinCount, Nodes: st.Nodes,
			Emitted: st.Emitted, CandidateScans: st.CandidateScans, ItemsRemoved: st.ItemsRemoved,
			PairPruned: st.PairPruned, PostfixPruned: st.PostfixPruned, SizePruned: st.SizePruned,
			ElapsedMillis: st.Elapsed.Milliseconds()}
		return nil
	})
	m.last, m.lastRows = tws, resp.Count
	return resp, nil
}

// record adds the exact counts of the mine since the last record, if
// there was one, to rc (or only forgets them when keep is false). It runs
// outside every span, so the bookkeeping is never timed.
func (m *miner) record(rc *replayCounts, keep bool) {
	counted := m.rec.take()
	if m.last == nil || !keep {
		m.last = nil
		return
	}
	keys := make(map[string]struct{})
	for _, t := range m.last {
		for _, r := range t.resp.Temporal {
			keys[r.Pattern.Key()] = struct{}{}
		}
	}
	rc.candidates = append(rc.candidates, float64(len(keys)))
	rc.counted = append(rc.counted, float64(counted))
	rc.patterns = append(rc.patterns, float64(m.lastRows))
	m.last = nil
}

// decodeSpec is the server's request decoding: strict JSON, validation,
// and the canonical result options that key the cache.
func decodeSpec(body []byte) (api.MineSpec, string, error) {
	var spec api.MineSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, "", err
	}
	if err := spec.Validate(); err != nil {
		return spec, "", err
	}
	return spec, spec.ResultOptions(), nil
}

// cachedMine is the cache layer around one mine: Cache.Do on key, with
// a miss mining through m and sizing the result by encoding it once, as
// tpmd does.
func cachedMine(ctx context.Context, tr *tracer, c *cache.Cache, m *miner, op, parent int, key cache.Key,
	db *interval.Database, part *shard.Partition, spec api.MineSpec) (*server.MineResponse, error) {
	var out *server.MineResponse
	err := tr.run(op, parent, "cache.do", func(id int) error {
		v, outcome, err := c.Do(ctx, key, func() (any, int64, bool, error) {
			resp, err := m.mine(ctx, op, id, db, part, spec)
			if err != nil {
				return nil, 0, false, err
			}
			var size int
			err = tr.run(op, id, "cache.size", func(int) error {
				b, err := json.Marshal(resp)
				size = len(b)
				return err
			})
			return resp, int64(size), true, err
		})
		if err != nil {
			return err
		}
		resp := *v.(*server.MineResponse)
		resp.Cache = string(outcome)
		out = &resp
		return nil
	})
	return out, err
}

// upload replays a dataset upload: parse the body and, when shards is
// positive, partition it.
func upload(tr *tracer, op, shards int, csv []byte) (*interval.Database, *shard.Partition, error) {
	root := tr.begin(op, -1, "upload")
	defer tr.end(root)
	var db *interval.Database
	if err := tr.run(op, root, "dataio.parse", func(int) (err error) {
		db, err = dataio.ReadCSV(bytes.NewReader(csv))
		return err
	}); err != nil {
		return nil, nil, err
	}
	if shards <= 0 {
		return db, nil, nil
	}
	var part *shard.Partition
	_ = tr.run(op, root, "shard.partition", func(int) error {
		part = shard.New(db, shards, server.DefaultShardMinSeqs)
		return nil
	})
	return db, part, nil
}

// serialMine times the serial miner on db next to the sharded path, and
// the endpoint encoding it starts with.
func serialMine(tr *tracer, op int, db *interval.Database, spec api.MineSpec) error {
	opt := spec.Options(0)
	if err := tr.run(op, -1, "seqdb.encode", func(int) error {
		minCount, err := core.ResolveMinCount(opt, db.Len())
		if err != nil {
			return err
		}
		enc, err := seqdb.EncodeEndpointDB(db)
		if err != nil {
			return err
		}
		enc.FilterInfrequent(minCount)
		return nil
	}); err != nil {
		return err
	}
	return tr.run(op, -1, "core.mine", func(int) error {
		_, _, err := core.MineTemporalCtx(context.Background(), db, opt)
		return err
	})
}

// replay runs a mine operation n times after one untraced warm-up: the
// upload, then the request through decode, cache, coordinator (in
// process or against the deployment's worker) and render, then the
// serial miner on the same database for comparison. read_hot's warm-up
// fills the cache, so its operations are hits.
func (w *mineWorkload) replay(d *deployment, tr *tracer, n int) (*replayCounts, error) {
	ctx := context.Background()
	rc := &replayCounts{remote: w.remote}
	c := cache.New(server.DefaultCacheBudgetBytes, nil)
	m := &miner{tr: tr}
	if w.remote {
		// Like tpmd's coordinator, one connection per concurrent shard call.
		m.worker = "http://" + d.procs[0].addr
		m.hc = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
		defer m.hc.CloseIdleConnections()
	}
	for op := -1; op < n; op++ {
		db, part, err := upload(tr, op, w.shards, w.in.csv)
		if err != nil {
			return nil, err
		}
		rc.shards, rc.skew = part.NumShards(), part.Skew()
		version := uint64(1)
		if !w.hot {
			version = uint64(op + 2)
		}
		m.version = version
		root := tr.begin(op, -1, "op")
		var spec api.MineSpec
		var opts string
		if err := tr.run(op, root, "api.decode", func(int) (err error) {
			spec, opts, err = decodeSpec(w.in.body)
			return err
		}); err != nil {
			return nil, err
		}
		resp, err := cachedMine(ctx, tr, c, m, op, root, cache.Key{Dataset: "bench", Version: version, Options: opts}, db, part, spec)
		if err != nil {
			return nil, err
		}
		if err := tr.run(op, root, "server.render", func(int) error {
			_, err := json.Marshal(resp)
			return err
		}); err != nil {
			return nil, err
		}
		tr.end(root)
		m.record(rc, op >= 0)
		if err := samePatterns(resp.Patterns, w.in.ref); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if !w.hot {
			if err := serialMine(tr, op, db, spec); err != nil {
				return nil, err
			}
		}
	}
	return rc, nil
}

// parseEvents is the events route's request handling: one strict JSON
// decode and validation per NDJSON line, then grouping the batch into
// sequences in first-appearance order with sorted intervals.
func parseEvents(body []byte) (*interval.Database, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	index := make(map[string]int)
	db := &interval.Database{}
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev ingestEvent
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		iv := interval.Interval{Symbol: ev.Symbol, Start: ev.Start, End: ev.End}
		if err := iv.Valid(); err != nil {
			return nil, err
		}
		i, ok := index[ev.Seq]
		if !ok {
			i = len(db.Sequences)
			index[ev.Seq] = i
			db.Sequences = append(db.Sequences, interval.Sequence{ID: ev.Seq})
		}
		db.Sequences[i].Intervals = append(db.Sequences[i].Intervals, iv)
	}
	for i := range db.Sequences {
		interval.SortIntervals(db.Sequences[i].Intervals)
	}
	return db, sc.Err()
}

// replay runs n appends after one untraced warm-up against an in-process
// store journaled to a fresh directory with the same fsync policy: parse
// the events, log the append, extend the partition, then the job run —
// window, partition, cached mine, diff, encode and journal the result.
func (w *ingestWorkload) replay(_ *deployment, tr *tracer, n int) (*replayCounts, error) {
	ctx := context.Background()
	rc := &replayCounts{}
	dir, err := os.MkdirTemp(w.dir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, persist.Options{FsyncMode: persist.FsyncAlways})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	db, part, err := upload(tr, -2, w.shards, w.in.csv)
	if err != nil {
		return nil, err
	}
	ver := uint64(1)
	if err := st.LogPut("bench", ver, db); err != nil {
		return nil, err
	}
	c := cache.New(server.DefaultCacheBudgetBytes, nil)
	m := &miner{tr: tr}
	win := w.in.spec.Window
	first, err := m.mine(ctx, -2, -1, db, part, w.in.spec)
	if err != nil {
		return nil, err
	}
	m.record(rc, false)
	prev, err := jobPatterns(first.Patterns)
	if err != nil {
		return nil, err
	}
	for op := -1; op < n; op++ {
		if op+1 >= len(w.chunks) {
			return nil, fmt.Errorf("replay: event stream exhausted after %d appends", op+1)
		}
		// The seed upload is timed for its parse only: the partition work
		// of this workload is the append's and the window's.
		if _, _, err := upload(tr, op, 0, w.in.csv); err != nil {
			return nil, err
		}
		root := tr.begin(op, -1, "op")
		var add *interval.Database
		if err := tr.run(op, root, "server.ingest_decode", func(int) (err error) {
			add, err = parseEvents(w.chunks[op+1])
			return err
		}); err != nil {
			return nil, err
		}
		ver++
		if err := tr.run(op, root, "persist.log_append", func(int) error {
			return st.LogAppend("bench", ver, add)
		}); err != nil {
			return nil, err
		}
		_ = tr.run(op, root, "shard.partition", func(int) error {
			grown := &interval.Database{Sequences: make([]interval.Sequence, 0, db.Len()+add.Len())}
			grown.Sequences = append(append(grown.Sequences, db.Sequences...), add.Sequences...)
			part = part.Extend(grown, w.shards, server.DefaultShardMinSeqs, shard.DefaultSkewThreshold)
			db = grown
			return nil
		})
		var window *interval.Database
		err := tr.run(op, root, "jobs.run", func(run int) error {
			var wpart *shard.Partition
			_ = tr.run(op, run, "shard.partition", func(int) error {
				window = &interval.Database{Sequences: db.Sequences[db.Len()-win.Count:]}
				wpart = shard.New(window, w.shards, server.DefaultShardMinSeqs)
				return nil
			})
			rc.shards, rc.skew = wpart.NumShards(), wpart.Skew()
			key := cache.Key{Dataset: "bench", Version: ver, Options: w.in.spec.ResultOptions()}
			resp, err := cachedMine(ctx, tr, c, m, op, run, key, window, wpart, w.in.spec)
			if err != nil {
				return err
			}
			var next []jobs.Pattern
			if err := tr.run(op, run, "jobs.build", func(int) (err error) {
				next, err = jobPatterns(resp.Patterns)
				return err
			}); err != nil {
				return err
			}
			delta := jobs.Delta{JobID: "bench", RunSeq: ver, Dataset: "bench", Version: ver, Total: len(next)}
			_ = tr.run(op, run, "jobs.diff", func(int) error {
				delta.Added, delta.Removed, delta.Changed = jobs.Diff(prev, next)
				return nil
			})
			if err := tr.run(op, run, "server.render", func(int) error {
				_, err := json.Marshal(delta)
				return err
			}); err != nil {
				return err
			}
			var result []byte
			if err := tr.run(op, run, "jobs.encode", func(int) (err error) {
				result, err = json.Marshal(jobs.Result{JobID: "bench", RunSeq: ver, Dataset: "bench", Version: ver, Patterns: next})
				return err
			}); err != nil {
				return err
			}
			ver++
			prev = next
			return tr.run(op, run, "persist.log_job_result", func(int) error {
				return st.LogJobResult("bench", ver, result)
			})
		})
		tr.end(root)
		if err != nil {
			return nil, err
		}
		m.record(rc, op >= 0)
		if err := serialMine(tr, op, window, w.in.spec); err != nil {
			return nil, err
		}
	}
	return rc, nil
}
