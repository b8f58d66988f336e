package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tpminer/internal/interval"
)

// explosiveDB builds a database whose search space explodes: every
// sequence holds nSym pairwise-overlapping intervals with distinct
// symbols (s_0 < s_1 < ... < e_0 < e_1 < ...), so at minCount == nSeq
// the miner faces a combinatorial number of frequent arrangements. At
// nSym >= 16 an unbounded run takes far longer than any test budget;
// these tests rely on cancellation/budgets to return early.
func explosiveDB(nSeq, nSym int) *interval.Database {
	seqs := make([][]interval.Interval, nSeq)
	for s := 0; s < nSeq; s++ {
		ivs := make([]interval.Interval, nSym)
		for i := 0; i < nSym; i++ {
			ivs[i] = interval.Interval{
				Symbol: fmt.Sprintf("S%02d", i),
				Start:  interval.Time(i),
				End:    interval.Time(nSym + i),
			}
		}
		seqs[s] = ivs
	}
	return interval.NewDatabase(seqs...)
}

// miners used by the table-driven cancellation tests: each returns the
// result count so both pattern types share one test body.
var ctxMiners = []struct {
	name string
	mine func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error)
}{
	{"temporal", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		return mineCount(ctx, db, KindTemporal, 0, opt)
	}},
	{"coincidence", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		return mineCount(ctx, db, KindCoincidence, 0, opt)
	}},
	{"temporal-parallel", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		opt.Parallel = 4
		return mineCount(ctx, db, KindTemporal, 0, opt)
	}},
	{"coincidence-parallel", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		opt.Parallel = 4
		return mineCount(ctx, db, KindCoincidence, 0, opt)
	}},
	{"temporal-topk", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		return mineCount(ctx, db, KindTemporal, 1000, opt)
	}},
	{"coincidence-topk", func(ctx context.Context, db *interval.Database, opt Options) (int, Stats, error) {
		return mineCount(ctx, db, KindCoincidence, 1000, opt)
	}},
}

// mineCount runs Mine and returns its result count and stats.
func mineCount(ctx context.Context, db *interval.Database, kind Kind, k int, opt Options) (int, Stats, error) {
	r, err := Mine(ctx, db, kind, k, opt)
	if err != nil {
		return 0, Stats{}, err
	}
	return r.Len(), r.Stats, nil
}

// TestCancelMidMine cancels an in-flight mine on an explosive dataset
// and requires a prompt context.Canceled return with no results.
func TestCancelMidMine(t *testing.T) {
	db := explosiveDB(3, 16)
	for _, tc := range ctxMiners {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(30 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			n, _, err := tc.mine(ctx, db, Options{MinCount: db.Len()})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n != 0 {
				t.Errorf("cancelled mine returned %d results, want 0", n)
			}
			if elapsed > time.Second {
				t.Errorf("cancelled mine took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestDeadlineExceeded runs a mine with a 50ms deadline on a dataset an
// unbounded run could not finish in seconds, and requires the error in
// well under 200ms (the documented ~10ms cancellation granularity plus
// margin).
func TestDeadlineExceeded(t *testing.T) {
	db := explosiveDB(3, 16)
	for _, tc := range ctxMiners {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			n, _, err := tc.mine(ctx, db, Options{MinCount: db.Len()})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if n != 0 {
				t.Errorf("deadline-hit mine returned %d results, want 0", n)
			}
			if elapsed > 200*time.Millisecond {
				t.Errorf("50ms-deadline mine took %v, want < 200ms", elapsed)
			}
		})
	}
}

// TestMaxPatternsTruncates caps emission on a dataset with ~2^10
// frequent patterns and checks the truncation report, for both pattern
// types and both execution modes.
func TestMaxPatternsTruncates(t *testing.T) {
	db := explosiveDB(3, 10)
	const maxPats = 25
	for _, tc := range ctxMiners {
		t.Run(tc.name, func(t *testing.T) {
			n, st, err := tc.mine(context.Background(), db, Options{MinCount: db.Len(), MaxPatterns: maxPats})
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 || n > maxPats {
				t.Errorf("got %d results, want 1..%d", n, maxPats)
			}
			if !st.Truncated || st.TruncatedBy != TruncatedMaxPatterns {
				t.Errorf("Stats truncation = (%v, %q), want (true, %q)",
					st.Truncated, st.TruncatedBy, TruncatedMaxPatterns)
			}
		})
	}
}

// TestMaxPatternsNotTruncatedWhenUnderCap: a cap above the full result
// count must not flag truncation.
func TestMaxPatternsNotTruncatedWhenUnderCap(t *testing.T) {
	db := explosiveDB(3, 5)
	full, st0, err := MineTemporalCtx(context.Background(), db, Options{MinCount: db.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if st0.Truncated {
		t.Fatalf("unbounded run flagged truncated: %+v", st0)
	}
	rs, st, err := MineTemporalCtx(context.Background(), db,
		Options{MinCount: db.Len(), MaxPatterns: len(full) + 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Errorf("under-cap run flagged truncated: %+v", st)
	}
	if len(rs) != len(full) {
		t.Errorf("under-cap run returned %d results, want %d", len(rs), len(full))
	}
}

// TestTimeBudgetTruncates: a soft time budget returns partial results
// without error, flagged as truncated.
func TestTimeBudgetTruncates(t *testing.T) {
	db := explosiveDB(3, 16)
	for _, tc := range ctxMiners {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, st, err := tc.mine(context.Background(), db,
				Options{MinCount: db.Len(), TimeBudget: 50 * time.Millisecond})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("time-budget run errored: %v", err)
			}
			if !st.Truncated || st.TruncatedBy != TruncatedTimeBudget {
				t.Errorf("Stats truncation = (%v, %q), want (true, %q)",
					st.Truncated, st.TruncatedBy, TruncatedTimeBudget)
			}
			if elapsed > time.Second {
				t.Errorf("50ms-budget mine took %v", elapsed)
			}
		})
	}
}

// TestCancelledFilters: the closed/maximal post-filters abort on a
// cancelled context.
func TestCancelledFilters(t *testing.T) {
	db := explosiveDB(3, 8)
	rs, _, err := MineTemporal(db, Options{MinCount: db.Len()})
	if err != nil {
		t.Fatal(err)
	}
	crs, _, err := MineCoincidence(db, Options{MinCount: db.Len(), MaxElements: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []*Result{{Temporal: rs}, {Coinc: crs}} {
		for _, which := range []string{"closed", "maximal"} {
			if err := Filter(ctx, r, which); !errors.Is(err, context.Canceled) {
				t.Errorf("%s filter of %d patterns: err = %v, want context.Canceled", which, r.Len(), err)
			}
		}
	}
}

// TestBudgetOptionValidation rejects negative budgets.
func TestBudgetOptionValidation(t *testing.T) {
	db := explosiveDB(2, 3)
	if _, _, err := MineTemporal(db, Options{MinCount: 1, MaxPatterns: -1}); err == nil {
		t.Error("negative MaxPatterns accepted")
	}
	if _, _, err := MineTemporal(db, Options{MinCount: 1, TimeBudget: -time.Second}); err == nil {
		t.Error("negative TimeBudget accepted")
	}
}
