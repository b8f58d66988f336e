package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tpminer/internal/coincidence"
	"tpminer/internal/core"
	"tpminer/internal/gen"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/shard"
)

// countLog records, for each round of one sharded mine, which patterns
// every shard reported and which it was asked to count. Round 0 is
// top-k's first round (its shards mine their local top-k); round 1 is
// the complete round every mine ends with. The coordinator joins each
// fan-out before the next begins, so a Count belongs to the round of
// the latest Mine.
type countLog struct {
	mu       sync.Mutex
	round    int
	reported [2][]map[string]bool
	counted  [2][]map[string]bool
	pats     map[string]any // pattern.Temporal or pattern.Coinc, by key
}

func newCountLog(shards int) *countLog {
	l := &countLog{pats: make(map[string]any)}
	for r := range l.reported {
		for i := 0; i < shards; i++ {
			l.reported[r] = append(l.reported[r], make(map[string]bool))
			l.counted[r] = append(l.counted[r], make(map[string]bool))
		}
	}
	return l
}

// loggedWorker records shard i's calls into log; truncate marks every
// mine response as cut short by a time budget.
type loggedWorker struct {
	shard.Worker
	i        int
	log      *countLog
	truncate bool
}

func (w loggedWorker) Mine(ctx context.Context, req *shard.MineShardRequest) (*shard.MineShardResponse, error) {
	resp, err := w.Worker.Mine(ctx, req)
	if err != nil {
		return resp, err
	}
	if w.truncate {
		resp.Stats.Truncated, resp.Stats.TruncatedBy = true, core.TruncatedTimeBudget
	}
	w.log.mu.Lock()
	defer w.log.mu.Unlock()
	w.log.round = 1
	if req.TopK > 0 {
		w.log.round = 0
	}
	for _, x := range resp.Temporal {
		w.log.reported[w.log.round][w.i][x.Pattern.Key()] = true
		w.log.pats[x.Pattern.Key()] = x.Pattern
	}
	for _, x := range resp.Coinc {
		w.log.reported[w.log.round][w.i][x.Pattern.Key()] = true
		w.log.pats[x.Pattern.Key()] = x.Pattern
	}
	return resp, nil
}

func (w loggedWorker) Count(ctx context.Context, req *shard.CountRequest) (*shard.CountResponse, error) {
	w.log.mu.Lock()
	for _, p := range req.Temporal {
		w.log.counted[w.log.round][w.i][p.Key()] = true
	}
	for _, p := range req.Coinc {
		w.log.counted[w.log.round][w.i][p.Key()] = true
	}
	w.log.mu.Unlock()
	return w.Worker.Count(ctx, req)
}

// loggedCoordinator builds a local coordinator over db whose workers
// record into the returned log.
func loggedCoordinator(db *interval.Database, shards int, truncate bool) (*shard.Coordinator, *countLog) {
	co := coordinatorFor(db, shards)
	log := newCountLog(len(co.Workers))
	for i, w := range co.Workers {
		co.Workers[i] = loggedWorker{Worker: w, i: i, log: log, truncate: truncate}
	}
	return co, log
}

// pairs returns round r's (candidate, silent shard) pairs and how many
// of them were counted, and calls pruned for every candidate some shard
// stayed silent on without being asked to count it.
func (l *countLog) pairs(r int, pruned func(key string)) (silent, counted int) {
	cands := make(map[string]bool)
	for _, rep := range l.reported[r] {
		for key := range rep {
			cands[key] = true
		}
	}
	for key := range cands {
		skipped := false
		for i, rep := range l.reported[r] {
			if rep[key] {
				continue
			}
			silent++
			if l.counted[r][i][key] {
				counted++
			} else {
				skipped = true
			}
		}
		if skipped {
			pruned(key)
		}
	}
	return silent, counted
}

// oracle holds a database in the forms the brute-force matchers read.
type oracle struct {
	ixs []pattern.Index
	cs  [][]coincidence.Coincidence
}

func newOracle(t *testing.T, db *interval.Database) *oracle {
	t.Helper()
	slices, err := pattern.EncodeDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := pattern.TransformDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	return &oracle{ixs: pattern.BuildIndexes(slices), cs: cs}
}

// support is p's support over the whole database under opt's span and
// gap bounds.
func (o *oracle) support(t *testing.T, p any, opt core.Options) int {
	t.Helper()
	switch p := p.(type) {
	case pattern.Temporal:
		return pattern.SupportIndexed(o.ixs, p, opt.MaxSpan, opt.MaxGap)
	case pattern.Coinc:
		return pattern.SupportCoinc(o.cs, p)
	}
	t.Fatalf("unexpected pattern type %T", p)
	return 0
}

// qualifyAt is the support a candidate of the complete round must reach
// to be in want, the serial answer: the minimum count for a plain mine;
// for top-k, the kth-best support (the coordinator's round threshold τ
// never exceeds it), or the floor when fewer than k patterns reach it.
func qualifyAt(t *testing.T, db *interval.Database, topK int, opt core.Options, want *core.Result) int {
	t.Helper()
	floor, err := core.ResolveMinCount(opt, db.Len())
	if err != nil {
		t.Fatal(err)
	}
	if topK > 0 && want.Len() == topK {
		if len(want.Temporal) > 0 {
			return want.Temporal[topK-1].Support
		}
		return want.Coinc[topK-1].Support
	}
	return floor
}

// TestPrunedCandidatesNeverQualify is the soundness property of the
// count round's bound pruning. A candidate that some shard reported and
// a silent shard was never asked to count must have a global support
// below what the final answer needs: below the minimum count for a
// plain mine, below the kth-best support for top-k. Top-k's first round
// must prune nothing, and the merged result must still equal the serial
// miner's.
func TestPrunedCandidatesNeverQualify(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	optionSets := []core.Options{
		{MinCount: 6},
		{MinCount: 4},
		{MinCount: 5, MaxSpan: 15, MaxGap: 8},
	}
	prunedPairs := 0
	for trial := 0; trial < 3; trial++ {
		db := randomDB(rng, 40, 6, 4, 30)
		brute := newOracle(t, db)
		for oi, base := range optionSets {
			for _, keepOcc := range []bool{true, false} {
				for _, kind := range kinds {
					if kind == core.KindCoincidence && !keepOcc {
						continue // coincidence patterns have no raw form
					}
					for _, topK := range []int{0, 3, 12} {
						opt := base
						opt.KeepOccurrences = keepOcc
						want, err := core.Mine(context.Background(), db, kind, topK, opt)
						if err != nil {
							t.Fatal(err)
						}
						need := qualifyAt(t, db, topK, opt, want)
						for shards := 2; shards <= 4; shards++ {
							label := fmt.Sprintf("trial %d opts %d keepOcc=%v %s top-%d shards=%d", trial, oi, keepOcc, kind, topK, shards)
							co, log := loggedCoordinator(db, shards, false)
							got, err := co.Mine(context.Background(), kind, topK, opt)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameResponse(t, label, got, want)
							for r, below := range []int{1, need} {
								silent, counted := log.pairs(r, func(key string) {
									if s := brute.support(t, log.pats[key], opt); s >= below {
										t.Errorf("%s round %d: pruned %s has global support %d >= %d", label, r, key, s, below)
									}
								})
								prunedPairs += silent - counted
							}
						}
					}
				}
			}
		}
	}
	if prunedPairs == 0 {
		t.Fatal("no candidate was pruned in any mine; the property was never exercised")
	}

	// On a fixed Quest input at 2 shards, pruning must skip counts.
	db, _, err := gen.Quest(gen.QuestConfig{NumSequences: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{MinCount: 12, MaxIntervals: 3}
	want, err := core.Mine(context.Background(), db, core.KindTemporal, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	co, log := loggedCoordinator(db, 2, false)
	got, err := co.Mine(context.Background(), core.KindTemporal, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, "quest", got, want)
	silent, counted := log.pairs(1, func(string) {})
	if counted >= silent {
		t.Errorf("quest: issued %d counts for %d (pattern, silent shard) pairs; pruning skipped none", counted, silent)
	}
}

// TestTruncatedShardPrunesNothing: once a shard's search is cut short,
// its silence bounds nothing, so every (candidate, silent shard) pair is
// counted.
func TestTruncatedShardPrunesNothing(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(18)), 40, 6, 4, 30)
	for _, kind := range kinds {
		co, log := loggedCoordinator(db, 3, true)
		if _, err := co.Mine(context.Background(), kind, 0, core.Options{MinCount: 6, KeepOccurrences: true}); err != nil {
			t.Fatal(err)
		}
		silent, counted := log.pairs(1, func(string) {})
		if silent == 0 || counted != silent {
			t.Errorf("%s: %d of %d (pattern, silent shard) pairs counted, want all of a nonzero number", kind, counted, silent)
		}
	}
}
