package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Metrics receives coordinator events. Implementations must be safe for
// concurrent use; a nil Metrics disables instrumentation.
type Metrics interface {
	// FanOut is called once per mine request with the shard count.
	FanOut(shards int)
	// ShardDone is called when one shard's mine call returns.
	ShardDone(shard int, d time.Duration)
	// Merged is called after the global merge with the number of merged
	// result patterns and the number of support-completion counts issued.
	Merged(patterns, counted int)
}

// Coordinator fans a mine request out to shard workers and merges the
// per-shard supports into the exact global result. Results — patterns,
// supports, and ordering — are identical to running the serial miner on
// the unpartitioned database.
type Coordinator struct {
	// Workers mine the shards; Sizes holds each shard's sequence count
	// (the partition-aware local bound depends on it).
	Workers []Worker
	Sizes   []int
	// Met receives instrumentation events; nil disables them.
	Met Metrics
}

// NewLocal builds a coordinator with one in-process worker per shard of
// the partition. db must be treated as immutable for the coordinator's
// lifetime (the store's copy-on-write contract guarantees this).
func NewLocal(db *interval.Database, p *Partition) *Coordinator {
	c := &Coordinator{
		Workers: make([]Worker, p.NumShards()),
		Sizes:   make([]int, p.NumShards()),
	}
	for i := range c.Workers {
		c.Workers[i] = NewLocalWorker(p.SubDatabase(db, i))
		c.Sizes[i] = len(p.Seqs(i))
	}
	return c
}

// NewWithWorkers builds a coordinator over explicit workers: the remote
// pool's coordinators (remote.Pool.Coordinator), whose workers are
// remote or local per shard, and the server's one-worker coordinator.
// sizes must hold each worker's shard sequence count; the slices are
// adopted, not copied.
func NewWithWorkers(workers []Worker, sizes []int) *Coordinator {
	if len(workers) != len(sizes) {
		panic("shard: NewWithWorkers: workers and sizes length mismatch")
	}
	return &Coordinator{Workers: workers, Sizes: sizes}
}

// LocalBound is the partition-aware local support bound: shard i of
// shardSeqs sequences (out of totalSeqs) mines completely at
// max(1, ceil(minCount·shardSeqs/totalSeqs)). Soundness: if a pattern
// misses this bound on every shard, each local support is strictly below
// minCount·nᵢ/N (an integer below a ceiling is below the ratio), so the
// per-shard supports sum to strictly less than minCount — a globally
// frequent pattern is therefore reported by at least one shard, and the
// coordinator recovers its exact global support by counting it on the
// shards that stayed silent.
func LocalBound(minCount, shardSeqs, totalSeqs int) int {
	if totalSeqs <= 0 {
		return 1
	}
	b := (minCount*shardSeqs + totalSeqs - 1) / totalSeqs
	if b < 1 {
		b = 1
	}
	return b
}

// totalSeqs is the partitioned database's sequence count.
func (c *Coordinator) totalSeqs() int {
	n := 0
	for _, s := range c.Sizes {
		n += s
	}
	return n
}

// shardOpt derives the options one shard mines with: the local bound
// replaces the global threshold, result caps move to the coordinator
// (shards must report everything above their bound or the merge loses
// patterns), temporal results stay raw so supports are additive, and the
// per-request parallelism budget is split across shards (the fan-out
// itself already provides K-way concurrency).
func (c *Coordinator) shardOpt(opt core.Options, kind core.Kind, bound int) core.Options {
	local := opt
	local.MinSupport = 0
	local.MinCount = bound
	local.MaxPatterns = 0
	if kind == core.KindTemporal {
		local.KeepOccurrences = true
	}
	if opt.Parallel > 1 {
		local.Parallel = opt.Parallel / len(c.Workers)
		if local.Parallel < 1 {
			local.Parallel = 1
		}
	}
	return local
}

// fanOut runs f once per shard concurrently and waits for every
// goroutine to finish before returning — also on error and on context
// cancellation, so no goroutine outlives the call. The first failure
// cancels the shared context; a real error is preferred over the
// resulting cancellations when reporting. Failures are wrapped with the
// shard index and worker address so a distributed mine names which
// machine broke; Unwrap keeps errors.Is/As matching on the cause.
func (c *Coordinator) fanOut(ctx context.Context, f func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(c.Workers))
	var wg sync.WaitGroup
	for i := range c.Workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(ctx, i); err != nil {
				errs[i] = &ShardError{Shard: i, Worker: WorkerAddr(c.Workers[i]), Err: err}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// family is what the merge needs to know about one pattern kind. The
// scatter, the support tally, the count round, and the top-k threshold
// are the same for both kinds; only these steps differ.
type family[P pattern.Pattern] struct {
	kind core.Kind
	// rows returns the kind's results of a response, and result wraps
	// merged results in one.
	rows   func(r *MineShardResponse) []pattern.Result[P]
	result func(rs []pattern.Result[P]) *MineShardResponse
	// count asks one shard for the supports of patterns it did not report,
	// under the request's span and gap constraints.
	count func(shard int, ps []P, opt core.Options) *CountRequest
	// order puts merged results in the serial miner's order.
	order func(rs []pattern.Result[P], opt core.Options) []pattern.Result[P]
}

var temporalFamily = family[pattern.Temporal]{
	kind:   core.KindTemporal,
	rows:   func(r *MineShardResponse) []pattern.TemporalResult { return r.Temporal },
	result: func(rs []pattern.TemporalResult) *MineShardResponse { return &MineShardResponse{Temporal: rs} },
	count: func(shard int, ps []pattern.Temporal, opt core.Options) *CountRequest {
		return &CountRequest{Shard: shard, Kind: core.KindTemporal, Temporal: ps, MaxSpan: opt.MaxSpan, MaxGap: opt.MaxGap}
	},
	// Shards report raw occurrence-labeled patterns so supports add up;
	// normalization, which max-merges duplicates, happens once, here.
	order: func(rs []pattern.TemporalResult, opt core.Options) []pattern.TemporalResult {
		if opt.KeepOccurrences {
			return pattern.SortResults(rs)
		}
		return pattern.NormalizeTemporalResults(rs)
	},
}

var coincFamily = family[pattern.Coinc]{
	kind:   core.KindCoincidence,
	rows:   func(r *MineShardResponse) []pattern.CoincResult { return r.Coinc },
	result: func(rs []pattern.CoincResult) *MineShardResponse { return &MineShardResponse{Coinc: rs} },
	count: func(shard int, ps []pattern.Coinc, _ core.Options) *CountRequest {
		return &CountRequest{Shard: shard, Kind: core.KindCoincidence, Coinc: ps}
	},
	order: func(rs []pattern.CoincResult, _ core.Options) []pattern.CoincResult {
		return pattern.SortResults(rs)
	},
}

// sorted returns the tallies' patterns and global supports in the
// serial miner's order.
func (f family[P]) sorted(ts []*tally[P], opt core.Options) []pattern.Result[P] {
	rs := make([]pattern.Result[P], len(ts))
	for i, t := range ts {
		rs[i] = pattern.Result[P]{Pattern: t.pat, Support: t.total}
	}
	return f.order(rs, opt)
}

// tally accumulates one pattern's global support across shards.
type tally[P any] struct {
	pat   P
	total int
	seen  []bool // which shards reported it
}

// ceiling is the most global support the pattern can have when every
// shard mined completely at bounds: the reported total plus b_i−1 for
// each shard i that stayed silent.
func (t *tally[P]) ceiling(bounds []int) int {
	n := t.total
	for i, seen := range t.seen {
		if !seen {
			n += bounds[i] - 1
		}
	}
	return n
}

// round is one scatter-gather pass: every shard mines at the local bound
// derived from bound (its local top-k when topK > 0), the coordinator
// sums the reported supports, fetches exact supports from the shards
// that stayed below their local bound (support completion), and keeps
// the patterns whose global support reaches keep. When every shard mined
// completely, a pattern whose ceiling is below keep cannot qualify
// whatever its silent shards hold, and is dropped without being counted.
// Tallies come back unsorted, in first-report order; counted is the
// number of completion counts issued. Per-shard stats are folded into
// agg.
func round[P pattern.Pattern](ctx context.Context, c *Coordinator, f family[P], topK, bound, keep int, opt core.Options, agg *core.Stats) (kept []*tally[P], counted int, err error) {
	if c.Met != nil {
		c.Met.FanOut(len(c.Workers))
	}
	k, n := len(c.Workers), c.totalSeqs()
	bounds := make([]int, k)
	for i := range bounds {
		bounds[i] = LocalBound(bound, c.Sizes[i], n)
	}
	resps := make([]*MineShardResponse, k)
	err = c.fanOut(ctx, func(ctx context.Context, i int) error {
		t0 := time.Now()
		resp, err := c.Workers[i].Mine(ctx, &MineShardRequest{
			Shard: i,
			Kind:  f.kind,
			TopK:  topK,
			Opt:   c.shardOpt(opt, f.kind, bounds[i]),
		})
		if c.Met != nil {
			c.Met.ShardDone(i, time.Since(t0))
		}
		resps[i] = resp
		return err
	})
	if err != nil {
		return nil, 0, err
	}

	// Silence bounds a shard's support only if the shard reported
	// everything at or above its bound: not its local top-k, and not a
	// search its time budget cut short.
	prune := topK == 0
	accs := make(map[string]*tally[P])
	var order []*tally[P]
	for i, resp := range resps {
		agg.Add(resp.Stats)
		prune = prune && !resp.Stats.Truncated
		for _, x := range f.rows(resp) {
			key := x.Pattern.Key()
			a := accs[key]
			if a == nil {
				a = &tally[P]{pat: x.Pattern, seen: make([]bool, k)}
				accs[key] = a
				order = append(order, a)
			}
			a.total += x.Support
			a.seen[i] = true
		}
	}

	missing := make([][]P, k)
	missingAcc := make([][]*tally[P], k)
	for _, a := range order {
		if prune && a.ceiling(bounds) < keep {
			continue
		}
		for i := 0; i < k; i++ {
			if !a.seen[i] {
				missing[i] = append(missing[i], a.pat)
				missingAcc[i] = append(missingAcc[i], a)
				counted++
			}
		}
	}
	counts := make([][]int, k)
	err = c.fanOut(ctx, func(ctx context.Context, i int) error {
		if len(missing[i]) == 0 {
			return nil
		}
		resp, err := c.Workers[i].Count(ctx, f.count(i, missing[i], opt))
		if err != nil {
			return err
		}
		if len(resp.Supports) != len(missing[i]) {
			return fmt.Errorf("count returned %d supports for %d patterns", len(resp.Supports), len(missing[i]))
		}
		counts[i] = resp.Supports
		return nil
	})
	if err != nil {
		return nil, counted, err
	}
	// Summed after the join: one pattern may be missing on several shards.
	for i := 0; i < k; i++ {
		for j, s := range counts[i] {
			missingAcc[i][j].total += s
		}
	}

	kept = order[:0]
	for _, a := range order {
		if a.total >= keep {
			kept = append(kept, a)
		}
	}
	return kept, counted, nil
}

// mine is Mine for one pattern family over two or more shards. A plain
// mine is one round at the global threshold. Top-k takes two rounds, in
// the spirit of the TPUT threshold algorithm: round one takes each
// shard's local top-k (at the floor's local bound), completes the
// candidates' exact global supports, and derives a sound global
// threshold τ — the candidate kth-best is a lower bound on the true
// kth-best because every one of the true top-k patterns is some shard's
// local top-k candidate or beaten by k candidates. Round two is a
// complete mine at max(τ, floor), which the merge filters exactly; the
// first k of the deterministic order is then the serial answer.
func mine[P pattern.Pattern](ctx context.Context, c *Coordinator, f family[P], topK int, opt core.Options) (*MineShardResponse, error) {
	start := time.Now()
	if topK > 0 && opt.MinCount == 0 && opt.MinSupport == 0 {
		opt.MinCount = 1
	}
	n := c.totalSeqs()
	floor, err := core.ResolveMinCount(opt, n)
	if err != nil {
		return nil, err
	}
	stats := core.Stats{Sequences: n, MinCount: floor}
	threshold, counted := floor, 0
	if topK > 0 {
		cands, cnt, err := round(ctx, c, f, topK, floor, 1, opt, &stats)
		if err != nil {
			return nil, err
		}
		counted += cnt
		// Candidates are ordered (for temporal, normalized) like the final
		// result, so the kth-best stays a lower bound on the true one.
		if cand := f.sorted(cands, opt); len(cand) >= topK {
			threshold = max(threshold, cand[topK-1].Support)
		}
	}
	merged, cnt, err := round(ctx, c, f, 0, threshold, threshold, opt, &stats)
	if err != nil {
		return nil, err
	}
	counted += cnt
	rs := f.sorted(merged, opt)
	if topK > 0 && len(rs) > topK {
		rs = rs[:topK]
	}
	rs = rs[:capPatterns(len(rs), opt.MaxPatterns, &stats)]
	if c.Met != nil {
		c.Met.Merged(len(rs), counted)
	}
	stats.Elapsed = time.Since(start)
	resp := f.result(rs)
	resp.Stats = stats
	return resp, nil
}

// capPatterns applies the global MaxPatterns cap to a sorted result
// count, mirroring the serial miner's truncation marker.
func capPatterns(n int, max int, stats *core.Stats) int {
	if max > 0 && n > max {
		stats.Truncated = true
		if stats.TruncatedBy == "" {
			stats.TruncatedBy = core.TruncatedMaxPatterns
		}
		return max
	}
	return n
}

// soloMine short-circuits a one-shard coordinator: its single worker
// holds the whole database, so the miner's own answer under the
// caller's unmodified options — full bound, requested distinctness, no
// merge — already is the exact serial result. This keeps a shards=1
// deployment within measurement noise of unsharded mining.
func (c *Coordinator) soloMine(ctx context.Context, kind core.Kind, topK int, opt core.Options) (*MineShardResponse, error) {
	start := time.Now()
	if c.Met != nil {
		c.Met.FanOut(1)
	}
	resp, err := c.Workers[0].Mine(ctx, &MineShardRequest{Shard: 0, Kind: kind, TopK: topK, Opt: opt})
	if err != nil {
		return nil, err
	}
	if c.Met != nil {
		c.Met.ShardDone(0, time.Since(start))
		c.Met.Merged(resp.Len(), 0)
	}
	return resp, nil
}

// Mine mines kind patterns across all shards — the topK best-supported
// ones when topK > 0 — and returns them in the worker response shape.
// Output — patterns, supports, ordering — is identical to core.Mine on
// the unpartitioned database, unless a shard's TimeBudget ran out
// (Stats.Truncated then reports the incomplete result, as serially).
// Stats aggregate the shards' search counters.
func (c *Coordinator) Mine(ctx context.Context, kind core.Kind, topK int, opt core.Options) (*MineShardResponse, error) {
	if topK < 0 {
		return nil, fmt.Errorf("shard: top-k requires k >= 0, got %d", topK)
	}
	if len(c.Workers) == 1 {
		return c.soloMine(ctx, kind, topK, opt)
	}
	switch kind {
	case core.KindTemporal:
		return mine(ctx, c, temporalFamily, topK, opt)
	case core.KindCoincidence:
		return mine(ctx, c, coincFamily, topK, opt)
	}
	return nil, fmt.Errorf("shard: unknown kind %q", kind)
}

// MineTemporal mines temporal patterns across all shards: Mine for
// plain temporal mining, with the results unwrapped.
func (c *Coordinator) MineTemporal(ctx context.Context, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
	resp, err := c.Mine(ctx, core.KindTemporal, 0, opt)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return resp.Temporal, resp.Stats, nil
}
