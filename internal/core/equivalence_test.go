package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// randomDB builds a small random interval database. Symbols are drawn
// from a small alphabet so that overlaps and repeats are common.
func randomDB(rng *rand.Rand, nSeq, maxIvs, nSyms int, horizon int64) *interval.Database {
	db := &interval.Database{}
	for s := 0; s < nSeq; s++ {
		n := 1 + rng.Intn(maxIvs)
		seq := interval.Sequence{ID: fmt.Sprintf("s%d", s)}
		for i := 0; i < n; i++ {
			start := rng.Int63n(horizon)
			dur := rng.Int63n(horizon / 2)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + rng.Intn(nSyms))),
				Start:  start,
				End:    start + dur,
			})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// pruningConfigs enumerates every combination of the four ablation
// switches.
func pruningConfigs(base core.Options) []core.Options {
	var out []core.Options
	for mask := 0; mask < 16; mask++ {
		o := base
		o.DisableGlobalPruning = mask&1 != 0
		o.DisablePairPruning = mask&2 != 0
		o.DisablePostfixPruning = mask&4 != 0
		o.DisableSizePruning = mask&8 != 0
		out = append(out, o)
	}
	return out
}

// TestTemporalMinerMatchesOracle cross-checks P-TPMiner against the
// brute-force oracle on randomized databases, for every combination of
// pruning switches, under raw occurrence-labelled semantics — without
// time bounds and under span and gap bounds, which the oracle counts
// through the same matcher as the shard count round.
func TestTemporalMinerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 4+rng.Intn(5), 5, 3, 20)
		minCount := 2
		for _, bounds := range []core.Options{{}, {MaxSpan: 8}, {MaxGap: 4}, {MaxSpan: 12, MaxGap: 3}} {
			base := core.Options{MinCount: minCount, KeepOccurrences: true, MaxSpan: bounds.MaxSpan, MaxGap: bounds.MaxGap}

			want, _, err := baseline.BruteForceTemporal(db, base)
			if err != nil {
				t.Fatalf("trial %d: oracle: %v", trial, err)
			}
			for _, opt := range pruningConfigs(base) {
				got, _, err := core.MineTemporal(db, opt)
				if err != nil {
					t.Fatalf("trial %d: miner: %v", trial, err)
				}
				if !pattern.ResultsEqual(got, want) {
					t.Fatalf("trial %d (opts %+v): miner and oracle disagree:\nminer: %d patterns %v\noracle: %d patterns %v\ndb: %v",
						trial, opt, len(got), got, len(want), want, db.Sequences)
				}
			}
		}
	}
}

// TestCoincidenceMinerMatchesOracle cross-checks coincidence mining
// against the brute-force oracle.
func TestCoincidenceMinerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 4+rng.Intn(5), 5, 3, 20)
		base := core.Options{MinCount: 2}

		want, _, err := baseline.BruteForceCoincidence(db, base)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		for _, opt := range pruningConfigs(base) {
			got, _, err := core.MineCoincidence(db, opt)
			if err != nil {
				t.Fatalf("trial %d: miner: %v", trial, err)
			}
			if !pattern.ResultsEqual(got, want) {
				t.Fatalf("trial %d (opts %+v): miner and oracle disagree:\nminer: %d %v\noracle: %d %v\ndb: %v",
					trial, opt, len(got), got, len(want), want, db.Sequences)
			}
		}
	}
}

// TestTPrefixSpanMatchesOracle cross-checks the placement-enumeration
// baseline against the oracle (normalized results, since both merge
// occurrence labelings identically).
func TestTPrefixSpanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		db := randomDB(rng, 4+rng.Intn(4), 4, 3, 16)
		opt := core.Options{MinCount: 2, KeepOccurrences: true}

		want, _, err := baseline.BruteForceTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		got, _, err := baseline.TPrefixSpan(db, opt)
		if err != nil {
			t.Fatalf("trial %d: tprefixspan: %v", trial, err)
		}
		if !pattern.ResultsEqual(got, want) {
			t.Fatalf("trial %d: tprefixspan and oracle disagree:\ntps: %d %v\noracle: %d %v\ndb: %v",
				trial, len(got), got, len(want), want, db.Sequences)
		}
	}
}

// TestAprioriMatchesOracle cross-checks both Apriori baselines.
func TestAprioriMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		db := randomDB(rng, 4+rng.Intn(4), 4, 3, 16)
		opt := core.Options{MinCount: 2, KeepOccurrences: true}

		wantT, _, err := baseline.BruteForceTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		gotT, _, err := baseline.AprioriTemporal(db, opt)
		if err != nil {
			t.Fatalf("trial %d: apriori temporal: %v", trial, err)
		}
		if !pattern.ResultsEqual(gotT, wantT) {
			t.Fatalf("trial %d: apriori temporal disagrees:\napriori: %d %v\noracle: %d %v\ndb: %v",
				trial, len(gotT), gotT, len(wantT), wantT, db.Sequences)
		}

		wantC, _, err := baseline.BruteForceCoincidence(db, opt)
		if err != nil {
			t.Fatalf("trial %d: coinc oracle: %v", trial, err)
		}
		gotC, _, err := baseline.AprioriCoincidence(db, opt)
		if err != nil {
			t.Fatalf("trial %d: apriori coincidence: %v", trial, err)
		}
		if !pattern.ResultsEqual(gotC, wantC) {
			t.Fatalf("trial %d: apriori coincidence disagrees:\napriori: %d %v\noracle: %d %v\ndb: %v",
				trial, len(gotC), gotC, len(wantC), wantC, db.Sequences)
		}
	}
}

// TestParallelMatchesSerial checks that the parallel miners return the
// same results as their serial counterparts on larger random inputs,
// across worker counts and both raw and normalized semantics.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		for _, keepOcc := range []bool{true, false} {
			serial := core.Options{MinCount: 3, KeepOccurrences: keepOcc}
			wantT, _, err := core.MineTemporal(db, serial)
			if err != nil {
				t.Fatal(err)
			}
			wantC, _, err := core.MineCoincidence(db, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				par := serial
				par.Parallel = workers

				gotT, _, err := core.MineTemporal(db, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotT, wantT) {
					t.Fatalf("trial %d (parallel=%d keepOcc=%v): parallel temporal differs: %d vs %d patterns",
						trial, workers, keepOcc, len(gotT), len(wantT))
				}

				gotC, _, err := core.MineCoincidence(db, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotC, wantC) {
					t.Fatalf("trial %d (parallel=%d keepOcc=%v): parallel coincidence differs: %d vs %d patterns",
						trial, workers, keepOcc, len(gotC), len(wantC))
				}
			}
		}
	}
}

// TestParallelClosedMaximal: the closed/maximal post-filters run on
// parallel-mined results must match the serial pipeline exactly — the
// filters are downstream of mining, so any divergence would mean the
// parallel result sets differ.
func TestParallelClosedMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 3; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		serial := core.Options{MinCount: 3}
		rsSerial, _, err := core.MineTemporal(db, serial)
		if err != nil {
			t.Fatal(err)
		}
		wantClosed := filterTemporal(t, rsSerial, "closed")
		wantMaximal := filterTemporal(t, rsSerial, "maximal")

		for _, workers := range []int{2, 4, 8} {
			par := serial
			par.Parallel = workers
			rsPar, _, err := core.MineTemporal(db, par)
			if err != nil {
				t.Fatal(err)
			}
			if got := filterTemporal(t, rsPar, "closed"); !pattern.ResultsEqual(got, wantClosed) {
				t.Fatalf("trial %d (parallel=%d): closed filter differs: %d vs %d", trial, workers, len(got), len(wantClosed))
			}
			if got := filterTemporal(t, rsPar, "maximal"); !pattern.ResultsEqual(got, wantMaximal) {
				t.Fatalf("trial %d (parallel=%d): maximal filter differs: %d vs %d", trial, workers, len(got), len(wantMaximal))
			}
		}
	}
}

// TestParallelTopKMatchesSerial: top-k mining honors Options.Parallel
// and returns exactly the serial top-k result for every worker count.
func TestParallelTopKMatchesSerial(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		db := randomDB(rng, 20, 6, 4, 30)
		for _, k := range []int{1, 5, 25} {
			serial := core.Options{MinCount: 2}
			wantT, err := core.Mine(ctx, db, core.KindTemporal, k, serial)
			if err != nil {
				t.Fatal(err)
			}
			wantC, err := core.Mine(ctx, db, core.KindCoincidence, k, serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				par := serial
				par.Parallel = workers
				gotT, err := core.Mine(ctx, db, core.KindTemporal, k, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotT.Temporal, wantT.Temporal) {
					t.Fatalf("trial %d k=%d parallel=%d: temporal top-k differs: %d vs %d",
						trial, k, workers, len(gotT.Temporal), len(wantT.Temporal))
				}
				gotC, err := core.Mine(ctx, db, core.KindCoincidence, k, par)
				if err != nil {
					t.Fatal(err)
				}
				if !pattern.ResultsEqual(gotC.Coinc, wantC.Coinc) {
					t.Fatalf("trial %d k=%d parallel=%d: coincidence top-k differs: %d vs %d",
						trial, k, workers, len(gotC.Coinc), len(wantC.Coinc))
				}
			}
		}
	}
}
