package shard

import (
	"context"
	"fmt"
	"sync"

	"tpminer/internal/coincidence"
	"tpminer/internal/core"
	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// MineShardRequest asks a worker to mine its shard completely at the
// coordinator-supplied local bound (carried in Opt.MinCount). TopK > 0
// selects the top-k miner with Opt.MinCount as the support floor.
type MineShardRequest struct {
	Shard int
	Kind  core.Kind
	TopK  int
	Opt   core.Options
}

// MineShardResponse carries one shard's results. Temporal results are
// raw (occurrence-labeled) so their supports are additive across
// shards; normalization happens once, at the coordinator.
type MineShardResponse = core.Result

// CountRequest asks a worker for the exact local support of patterns it
// did not report (they fell below its relaxed local bound). MaxSpan and
// MaxGap replicate the mining constraints so the counted support equals
// what the miner would have emitted.
type CountRequest struct {
	Shard    int
	Kind     core.Kind
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
// shard database. Count indexes are built lazily on first use and
// cached for the worker's lifetime (the shard database is immutable):
// each sequence in the form its kind's matcher reads, and a posting list
// per endpoint or symbol of the sequences that hold it, as ascending
// sequence indices.
type LocalWorker struct {
	db *interval.Database

	tempOnce  sync.Once
	tempErr   error
	tempIdx   []pattern.Index
	tempPosts map[endpoint.Endpoint][]int32

	coOnce  sync.Once
	coErr   error
	coDB    [][]coincidence.Coincidence
	coPosts map[string][]int32
}

// NewLocalWorker wraps db, which the worker treats as immutable.
func NewLocalWorker(db *interval.Database) *LocalWorker {
	return &LocalWorker{db: db}
}

// Mine runs the shard's miner per the request.
func (w *LocalWorker) Mine(ctx context.Context, req *MineShardRequest) (*MineShardResponse, error) {
	return core.Mine(ctx, w.db, req.Kind, req.TopK, req.Opt)
}

// countPollEvery bounds how many patterns a Count decides between
// context checks, so cancellation propagates promptly on large requests.
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
			w.tempPosts = make(map[endpoint.Endpoint][]int32)
			for si, seq := range slices {
				for _, sl := range seq {
					for _, e := range sl.Points {
						// An endpoint occurs at most once per sequence.
						w.tempPosts[e] = append(w.tempPosts[e], int32(si))
					}
				}
			}
		})
		if w.tempErr != nil {
			return nil, w.tempErr
		}
		return countPosted(ctx, w.tempIdx, w.tempPosts, req.Temporal,
			func(p pattern.Temporal) [][]endpoint.Endpoint { return p.Elements },
			func(ix pattern.Index, p pattern.Temporal) bool { return ix.Contains(p, req.MaxSpan, req.MaxGap) })
	case core.KindCoincidence:
		w.coOnce.Do(func() {
			w.coDB, w.coErr = pattern.TransformDatabase(w.db)
			w.coPosts = make(map[string][]int32)
			for si, seq := range w.coDB {
				for _, c := range seq {
					for _, sym := range c.Symbols {
						if l := w.coPosts[sym]; len(l) == 0 || l[len(l)-1] != int32(si) {
							w.coPosts[sym] = append(l, int32(si))
						}
					}
				}
			}
		})
		if w.coErr != nil {
			return nil, w.coErr
		}
		return countPosted(ctx, w.coDB, w.coPosts, req.Coinc,
			func(p pattern.Coinc) [][]string { return p.Elements }, pattern.ContainsCoinc)
	default:
		return nil, fmt.Errorf("shard: unknown kind %q", req.Kind)
	}
}

// countPosted counts, for each pattern, the sequences that contain it.
// elements(p) is the pattern's elements, each a set of keys, and posts
// holds each key's posting list. A sequence missing one of the pattern's
// keys cannot contain it, so only the sequences on the pattern's
// shortest posting list are tested (none when a key is absent from the
// shard; every sequence when the pattern names no key). ctx is checked
// every countPollEvery patterns.
func countPosted[S any, K comparable, P any](ctx context.Context, seqs []S, posts map[K][]int32, ps []P,
	elements func(P) [][]K, contains func(S, P) bool) (*CountResponse, error) {
	sup := make([]int, len(ps))
	for pi, p := range ps {
		if pi%countPollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		var list []int32
		named := false
		for _, el := range elements(p) {
			for _, k := range el {
				if l := posts[k]; !named || len(l) < len(list) {
					list, named = l, true
				}
			}
		}
		if !named {
			for _, s := range seqs {
				if contains(s, p) {
					sup[pi]++
				}
			}
			continue
		}
		for _, si := range list {
			if contains(seqs[si], p) {
				sup[pi]++
			}
		}
	}
	return &CountResponse{Supports: sup}, nil
}
