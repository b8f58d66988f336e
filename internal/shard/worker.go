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

// MineShardRequest asks a worker to mine its shard completely at the
// coordinator-supplied local bound (carried in Opt.MinCount). TopK > 0
// selects the top-k miner with Opt.MinCount as the support floor. The
// JSON names are those of the worker wire's mine body.
type MineShardRequest struct {
	Shard int          `json:"shard"`
	Kind  core.Kind    `json:"kind"`
	TopK  int          `json:"topk,omitempty"`
	Opt   core.Options `json:"opt"`
}

// MineShardResponse carries one shard's results. Temporal results are
// raw (occurrence-labeled) so their supports are additive across
// shards; normalization happens once, at the coordinator.
type MineShardResponse = core.Result

// CountRequest asks a worker for the exact local support of patterns it
// did not report (they fell below its relaxed local bound). MaxSpan and
// MaxGap replicate the mining constraints so the counted support equals
// what the miner would have emitted. The JSON names are those of the
// worker wire's count body.
type CountRequest struct {
	Shard    int                `json:"shard"`
	Kind     core.Kind          `json:"kind"`
	Temporal []pattern.Temporal `json:"temporal,omitempty"`
	Coinc    []pattern.Coinc    `json:"coinc,omitempty"`
	MaxSpan  interval.Time      `json:"max_span,omitempty"`
	MaxGap   interval.Time      `json:"max_gap,omitempty"`
}

// CountResponse holds per-pattern local supports, parallel to the
// request's pattern slice.
type CountResponse struct {
	Supports []int `json:"supports"`
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
	return core.Mine(ctx, w.db, req.Kind, req.TopK, req.Opt)
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
	case core.KindTemporal:
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
	case core.KindCoincidence:
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
