package shard

import (
	"context"
	"fmt"
	"sync"

	"tpminer/internal/coincidence"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// Kind selects which pattern family a shard request mines or counts.
type Kind string

const (
	KindTemporal    Kind = "temporal"
	KindCoincidence Kind = "coincidence"
)

// MineShardRequest asks a worker to mine its shard completely at the
// coordinator-supplied local bound (carried in Opt.MinCount). TopK > 0
// selects the top-k miner with Opt.MinCount as the support floor.
type MineShardRequest struct {
	Shard int
	Kind  Kind
	TopK  int
	Opt   core.Options
}

// MineShardResponse carries one shard's results. Temporal results are
// raw (occurrence-labeled) so their supports are additive across
// shards; normalization happens once, at the coordinator.
type MineShardResponse struct {
	Temporal []pattern.TemporalResult
	Coinc    []pattern.CoincResult
	Stats    core.Stats
}

// size is the number of results the response carries (only one of
// Temporal and Coinc is ever set).
func (r *MineShardResponse) size() int { return len(r.Temporal) + len(r.Coinc) }

// support is the support of result i.
func (r *MineShardResponse) support(i int) int {
	if r.Temporal != nil {
		return r.Temporal[i].Support
	}
	return r.Coinc[i].Support
}

// truncate keeps at most the first n results.
func (r *MineShardResponse) truncate(n int) {
	if len(r.Temporal) > n {
		r.Temporal = r.Temporal[:n]
	}
	if len(r.Coinc) > n {
		r.Coinc = r.Coinc[:n]
	}
}

// CountRequest asks a worker for the exact local support of patterns it
// did not report (they fell below its relaxed local bound). MaxSpan and
// MaxGap replicate the mining constraints so the counted support equals
// what the miner would have emitted.
type CountRequest struct {
	Shard    int
	Kind     Kind
	Temporal []pattern.Temporal
	Coinc    []pattern.Coinc
	MaxSpan  interval.Time
	MaxGap   interval.Time
}

// CountResponse holds per-pattern local supports, parallel to the
// request's pattern slice.
type CountResponse struct {
	Supports []int
}

// Worker mines or counts over one shard. The interface is deliberately
// RPC-shaped — context plus plain request/response structs, no shared
// memory beyond the shard handed to the worker at construction — so a
// remote (HTTP/gRPC) implementation can replace LocalWorker without
// touching the Coordinator.
type Worker interface {
	Mine(ctx context.Context, req *MineShardRequest) (*MineShardResponse, error)
	Count(ctx context.Context, req *CountRequest) (*CountResponse, error)
}

// LocalWorker runs the existing dense-index miner in-process over one
// shard database. Count encodings are built lazily on first use and
// cached for the worker's lifetime (the shard database is immutable).
type LocalWorker struct {
	db *interval.Database

	tempOnce sync.Once
	tempErr  error
	tempIdx  []pattern.Index

	coOnce sync.Once
	coErr  error
	coDB   [][]coincidence.Coincidence
}

// NewLocalWorker wraps db, which the worker treats as immutable.
func NewLocalWorker(db *interval.Database) *LocalWorker {
	return &LocalWorker{db: db}
}

// Mine runs the shard's miner per the request.
func (w *LocalWorker) Mine(ctx context.Context, req *MineShardRequest) (*MineShardResponse, error) {
	switch req.Kind {
	case KindTemporal:
		var (
			rs  []pattern.TemporalResult
			st  core.Stats
			err error
		)
		if req.TopK > 0 {
			rs, st, err = core.MineTemporalTopKCtx(ctx, w.db, req.TopK, req.Opt)
		} else {
			rs, st, err = core.MineTemporalCtx(ctx, w.db, req.Opt)
		}
		if err != nil {
			return nil, err
		}
		return &MineShardResponse{Temporal: rs, Stats: st}, nil
	case KindCoincidence:
		var (
			rs  []pattern.CoincResult
			st  core.Stats
			err error
		)
		if req.TopK > 0 {
			rs, st, err = core.MineCoincidenceTopKCtx(ctx, w.db, req.TopK, req.Opt)
		} else {
			rs, st, err = core.MineCoincidenceCtx(ctx, w.db, req.Opt)
		}
		if err != nil {
			return nil, err
		}
		return &MineShardResponse{Coinc: rs, Stats: st}, nil
	default:
		return nil, fmt.Errorf("shard: unknown kind %q", req.Kind)
	}
}

// countPollEvery bounds how many sequences a Count scans between
// context checks, so cancellation propagates promptly on large shards.
const countPollEvery = 64

// Count computes exact local supports for the requested patterns with
// pattern's matchers — the ones the oracle and the incremental miner
// use — so a counted support equals what the miner would have emitted,
// span and gap constraints included.
func (w *LocalWorker) Count(ctx context.Context, req *CountRequest) (*CountResponse, error) {
	switch req.Kind {
	case KindTemporal:
		w.tempOnce.Do(func() {
			slices, err := pattern.EncodeDatabase(w.db)
			if err != nil {
				w.tempErr = err
				return
			}
			w.tempIdx = pattern.BuildIndexes(slices)
		})
		if w.tempErr != nil {
			return nil, w.tempErr
		}
		return countSupports(ctx, w.tempIdx, req.Temporal, func(ix pattern.Index, p pattern.Temporal) bool {
			return ix.Contains(p, req.MaxSpan, req.MaxGap)
		})
	case KindCoincidence:
		w.coOnce.Do(func() {
			w.coDB, w.coErr = pattern.TransformDatabase(w.db)
		})
		if w.coErr != nil {
			return nil, w.coErr
		}
		return countSupports(ctx, w.coDB, req.Coinc, pattern.ContainsCoinc)
	default:
		return nil, fmt.Errorf("shard: unknown kind %q", req.Kind)
	}
}

// countSupports counts, for each pattern, the sequences that contain it,
// checking ctx every countPollEvery sequences.
func countSupports[S, P any](ctx context.Context, seqs []S, ps []P, contains func(S, P) bool) (*CountResponse, error) {
	sup := make([]int, len(ps))
	for si, s := range seqs {
		if si%countPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for pi := range ps {
			if contains(s, ps[pi]) {
				sup[pi]++
			}
		}
	}
	return &CountResponse{Supports: sup}, nil
}
