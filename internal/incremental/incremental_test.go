package incremental

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

func randomSeq(rng *rand.Rand, id int) interval.Sequence {
	seq := interval.Sequence{ID: fmt.Sprintf("s%d", id)}
	n := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		start := rng.Int63n(30)
		seq.Intervals = append(seq.Intervals, interval.Interval{
			Symbol: string(rune('A' + rng.Intn(3))),
			Start:  start,
			End:    start + rng.Int63n(12),
		})
	}
	return seq
}

func TestNewMinerValidation(t *testing.T) {
	good := core.Options{MinSupport: 0.2}
	bad := []struct {
		opt   core.Options
		ratio float64
	}{
		{good, 0},
		{good, -0.5},
		{good, 1.5},
		{core.Options{}, 0.5},
		{core.Options{MinSupport: math.NaN()}, 0.5},
		{core.Options{MinSupport: 0.2, KeepOccurrences: true}, 0.5},
		{core.Options{MinSupport: 0.2, Parallel: 2}, 0.5},
		// Truncating budgets would break the exactness guarantee.
		{core.Options{MinSupport: 0.2, MaxPatterns: 10}, 0.5},
		{core.Options{MinSupport: 0.2, TimeBudget: time.Second}, 0.5},
	}
	for i, c := range bad {
		if _, err := NewMiner(c.opt, c.ratio); err == nil {
			t.Errorf("case %d: NewMiner accepted %+v ratio %v", i, c.opt, c.ratio)
		}
	}
	if _, err := NewMiner(good, 0.5); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestValidateSequences: Sequence.Valid, the check tpmd's dataset
// store runs on each sequence of an append, accepts and rejects exactly
// the increments AppendCtx does, and a rejected increment leaves the
// database untouched — also when its valid sequences come before the
// bad one, so AppendCtx validates the whole increment before applying
// any of it.
func TestValidateSequences(t *testing.T) {
	seq := func(id string, ivs ...interval.Interval) interval.Sequence {
		return interval.Sequence{ID: id, Intervals: ivs}
	}
	good := seq("good", interval.Interval{Symbol: "A", Start: 0, End: 4}, interval.Interval{Symbol: "B", Start: 2, End: 2})
	bad := seq("bad", interval.Interval{Symbol: "A", Start: 5, End: 1})
	cases := []struct {
		name string
		inc  []interval.Sequence
	}{
		{"good", []interval.Sequence{good}},
		{"empty", []interval.Sequence{seq("empty")}},
		{"reversed", []interval.Sequence{bad}},
		{"no-symbol", []interval.Sequence{seq("no-symbol", interval.Interval{Start: 0, End: 1})}},
		{"late-bad", []interval.Sequence{seq("late-bad", interval.Interval{Symbol: "A", Start: 0, End: 1}, interval.Interval{Symbol: "B", Start: 3, End: 2})}},
		{"good-then-bad", []interval.Sequence{good, bad}},
	}
	for _, c := range cases {
		m, err := NewMiner(core.Options{MinSupport: 0.5}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var validErr error
		for _, sq := range c.inc {
			if validErr = sq.Valid(); validErr != nil {
				break
			}
		}
		_, appendErr := m.AppendCtx(context.Background(), c.inc...)
		if (validErr == nil) != (appendErr == nil) {
			t.Errorf("%s: Valid = %v, AppendCtx = %v; want both to accept or both to reject", c.name, validErr, appendErr)
		}
		if appendErr != nil && m.Database().Len() != 0 {
			t.Errorf("%s: rejected increment left %d sequences in the database", c.name, m.Database().Len())
		}
	}
}

// TestMatchesFromScratch is the central equivalence property: after
// every append, Patterns() equals a from-scratch core.MineTemporal run
// on the accumulated database — also under the span and gap bounds,
// which an append's containment test must honor like the miner does.
func TestMatchesFromScratch(t *testing.T) {
	for _, bounds := range []struct {
		name      string
		span, gap interval.Time
	}{
		{"", 0, 0},
		{"/max_span=8", 8, 0},
		{"/max_gap=5", 0, 5},
	} {
		for _, ratio := range []float64{0.3, 0.5, 1.0} {
			for _, batch := range []int{1, 3, 7} {
				t.Run(fmt.Sprintf("ratio=%v/batch=%d%s", ratio, batch, bounds.name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(batch)*100 + int64(ratio*10)))
					opt := core.Options{MinSupport: 0.25, MaxIntervals: 3, MaxSpan: bounds.span, MaxGap: bounds.gap}
					m, err := NewMiner(opt, ratio)
					if err != nil {
						t.Fatal(err)
					}
					id := 0
					for round := 0; round < 12; round++ {
						seqs := make([]interval.Sequence, batch)
						for i := range seqs {
							seqs[i] = randomSeq(rng, id)
							id++
						}
						if _, err := m.Append(seqs...); err != nil {
							t.Fatal(err)
						}
						got := m.Patterns()
						want, _, err := core.MineTemporal(m.Database(), opt)
						if err != nil {
							t.Fatal(err)
						}
						if !pattern.ResultsEqual(got, want) {
							t.Fatalf("round %d: incremental %d patterns, fresh mine %d patterns\ninc: %v\nfresh: %v",
								round, len(got), len(want), got, want)
						}
					}
				})
			}
		}
	}
}

// TestAbsoluteThresholdEquivalence repeats the equivalence with a fixed
// absolute MinCount, where the slack does not grow with the database.
func TestAbsoluteThresholdEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opt := core.Options{MinCount: 4, MaxIntervals: 3}
	m, err := NewMiner(opt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if _, err := m.Append(randomSeq(rng, round)); err != nil {
			t.Fatal(err)
		}
		got := m.Patterns()
		want, _, err := core.MineTemporal(m.Database(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !pattern.ResultsEqual(got, want) {
			t.Fatalf("round %d: mismatch (%d vs %d patterns)", round, len(got), len(want))
		}
	}
}

func TestIncrementalStepsActuallyHappen(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, err := NewMiner(core.Options{MinSupport: 0.3, MaxIntervals: 3}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := m.Append(randomSeq(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Appends != 60 {
		t.Errorf("appends = %d", st.Appends)
	}
	if st.IncrementalSteps == 0 {
		t.Error("no incremental steps at all — buffer slack never used")
	}
	if st.FullRemines == 0 {
		t.Error("no full re-mines — first append must re-mine")
	}
	if st.FullRemines+st.IncrementalSteps != st.Appends {
		t.Errorf("step accounting: %+v", st)
	}
	if st.IncrementalSteps < st.FullRemines {
		t.Errorf("expected mostly incremental steps: %+v", st)
	}
	if st.Sequences != 60 {
		t.Errorf("sequences = %d", st.Sequences)
	}
}

func TestThresholdCrossingPatternAppears(t *testing.T) {
	// Start with noise; then append many copies of an A-overlaps-B
	// sequence until the pattern crosses the threshold. The pattern must
	// appear even though it was absent from early buffers.
	m, err := NewMiner(core.Options{MinSupport: 0.4, MaxIntervals: 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	noise := func(id int) interval.Sequence {
		return interval.Sequence{ID: fmt.Sprintf("n%d", id), Intervals: []interval.Interval{
			{Symbol: "C", Start: 0, End: 5},
		}}
	}
	overlap := func(id int) interval.Sequence {
		return interval.Sequence{ID: fmt.Sprintf("o%d", id), Intervals: []interval.Interval{
			{Symbol: "A", Start: 0, End: 4},
			{Symbol: "B", Start: 2, End: 6},
		}}
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Append(noise(i)); err != nil {
			t.Fatal(err)
		}
	}
	hasOverlap := func() bool {
		for _, r := range m.Patterns() {
			if r.Pattern.String() == "A+ B+ A- B-" {
				return true
			}
		}
		return false
	}
	if hasOverlap() {
		t.Fatal("overlap frequent before it exists")
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Append(overlap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !hasOverlap() {
		t.Fatalf("overlap never surfaced; patterns: %v", m.Patterns())
	}
}

func TestAppendRejectsInvalid(t *testing.T) {
	m, err := NewMiner(core.Options{MinSupport: 0.5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bad := interval.Sequence{Intervals: []interval.Interval{{Symbol: "A", Start: 5, End: 1}}}
	if _, err := m.Append(bad); err == nil {
		t.Error("invalid sequence accepted")
	}
	if m.Database().Len() != 0 {
		t.Error("failed append mutated the database")
	}
	if m.Stats().Appends != 0 {
		t.Error("failed append counted")
	}
}

// TestAppendCtxCancelledRollsBack: a cancelled re-mine must leave the
// miner exactly as before the append, and the append must be retryable.
func TestAppendCtxCancelledRollsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opt := core.Options{MinSupport: 0.3, MaxIntervals: 3}
	m, err := NewMiner(opt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []interval.Sequence
	for i := 0; i < 8; i++ {
		seqs = append(seqs, randomSeq(rng, i))
	}
	if _, err := m.Append(seqs...); err != nil {
		t.Fatal(err)
	}
	before := m.Patterns()
	beforeLen := m.Database().Len()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	extra := randomSeq(rng, 100)
	// Force a re-mine on this append by exhausting the slack: with the
	// database doubled, the exactness condition B-1+k >= minCount holds.
	var batch []interval.Sequence
	for i := 0; i < beforeLen; i++ {
		batch = append(batch, randomSeq(rng, 200+i))
	}
	batch = append(batch, extra)
	if _, err := m.AppendCtx(cancelled, batch...); !errors.Is(err, context.Canceled) {
		t.Fatalf("AppendCtx err = %v, want context.Canceled", err)
	}
	if got := m.Database().Len(); got != beforeLen {
		t.Errorf("rolled-back database has %d sequences, want %d", got, beforeLen)
	}
	if !pattern.ResultsEqual(m.Patterns(), before) {
		t.Error("pattern state changed by a cancelled append")
	}

	// Retrying the same append must succeed and match from-scratch.
	if _, err := m.Append(batch...); err != nil {
		t.Fatal(err)
	}
	want, _, err := core.MineTemporal(m.Database(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !pattern.ResultsEqual(m.Patterns(), want) {
		t.Fatalf("retried append diverged from scratch mine (%d vs %d patterns)",
			len(m.Patterns()), len(want))
	}
}

func TestEmptyMiner(t *testing.T) {
	m, err := NewMiner(core.Options{MinSupport: 0.5}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Patterns(); len(got) != 0 {
		t.Errorf("empty miner returned %v", got)
	}
}
