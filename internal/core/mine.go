package core

import (
	"context"
	"fmt"

	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/seqdb"
)

// Kind selects the pattern family a mine finds. The values are the
// kind names of the worker wire.
type Kind string

const (
	KindTemporal    Kind = "temporal"
	KindCoincidence Kind = "coincidence"
)

// Result is a mine's outcome for either kind: Temporal holds a temporal
// mine's patterns and Coinc a coincidence mine's, so at most one is
// non-empty.
type Result struct {
	Temporal []pattern.TemporalResult
	Coinc    []pattern.CoincResult
	Stats    Stats
}

// Len is the number of patterns r holds.
func (r *Result) Len() int { return len(r.Temporal) + len(r.Coinc) }

// Mine is the one mining entry point. It returns the frequent kind
// patterns of db or, when k > 0, the k best-supported ones, with the
// options' threshold (or 1 when none is set) as a floor that the search
// raises as it finds better patterns (see topk.go). Temporal results are
// normalized unless Options.KeepOccurrences is set, in which case they
// are the raw occurrence-labelled patterns, and top-k counts distinct
// patterns the same way. The coincidence miner uses full PrefixSpan
// semantics with earliest-match projection, since one symbol may appear
// in many segments of a sequence; prunings P2/P3 are endpoint-specific
// and apply only to temporal mining.
//
// The search polls ctx every pollInterval units of work and aborts with
// ctx.Err() and no result when it is cancelled or its deadline passes.
// Budget stops (Options.MaxPatterns, Options.TimeBudget) are not errors:
// they return the patterns found so far with Stats.Truncated set.
func Mine(ctx context.Context, db *interval.Database, kind Kind, k int, opt Options) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: top-k requires k >= 0, got %d", k)
	}
	if k > 0 && opt.MinCount == 0 && opt.MinSupport == 0 {
		opt.MinCount = 1
	}
	var (
		r   Result
		err error
	)
	switch kind {
	case KindTemporal:
		order := pattern.NormalizeTemporalResults
		if opt.KeepOccurrences {
			order = pattern.SortResults[pattern.Temporal]
		}
		r.Temporal, r.Stats, err = mineKind(ctx, db, k, opt, seqdb.EncodeEndpointDB, newTemporalMiner, order)
	case KindCoincidence:
		r.Coinc, r.Stats, err = mineKind(ctx, db, k, opt, seqdb.EncodeCoincidenceDB, newCoincMiner, pattern.SortResults[pattern.Coinc])
	default:
		return nil, fmt.Errorf("core: unknown kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// MineTemporal is Mine for all frequent temporal patterns, without
// cancellation.
func MineTemporal(db *interval.Database, opt Options) ([]pattern.TemporalResult, Stats, error) {
	return temporal(Mine(context.Background(), db, KindTemporal, 0, opt))
}

// MineTemporalCtx is Mine for all frequent temporal patterns.
func MineTemporalCtx(ctx context.Context, db *interval.Database, opt Options) ([]pattern.TemporalResult, Stats, error) {
	return temporal(Mine(ctx, db, KindTemporal, 0, opt))
}

// MineCoincidence is Mine for all frequent coincidence patterns,
// without cancellation.
func MineCoincidence(db *interval.Database, opt Options) ([]pattern.CoincResult, Stats, error) {
	r, err := Mine(context.Background(), db, KindCoincidence, 0, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Coinc, r.Stats, nil
}

// temporal unpacks a temporal Mine into the results-and-stats shape the
// evaluation's baselines share.
func temporal(r *Result, err error) ([]pattern.TemporalResult, Stats, error) {
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Temporal, r.Stats, nil
}
