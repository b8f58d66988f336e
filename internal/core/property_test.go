package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

// TestMinerDeterminism: identical inputs produce byte-identical result
// lists, serial and parallel, both pattern types.
func TestMinerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		db := randomDB(rng, 15, 6, 3, 25)
		for _, par := range []int{0, 2, 4, 8} {
			opt := core.Options{MinCount: 2, Parallel: par}
			a, _, err := core.MineTemporal(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := core.MineTemporal(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("temporal mining not deterministic (parallel=%d)", par)
			}
			ca, _, err := core.MineCoincidence(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			cb, _, err := core.MineCoincidence(db, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ca, cb) {
				t.Fatalf("coincidence mining not deterministic (parallel=%d)", par)
			}
		}
	}
}

// quickDB builds a database from testing/quick's raw fuzz material.
func quickDB(seqs [][6]uint8) *interval.Database {
	db := &interval.Database{}
	for _, raw := range seqs {
		seq := interval.Sequence{ID: "q"}
		// Three intervals per raw tuple: (symbol, start, duration) x2.
		for i := 0; i+2 < len(raw); i += 3 {
			start := int64(raw[i+1] % 24)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + raw[i]%3)),
				Start:  start,
				End:    start + int64(raw[i+2]%12),
			})
		}
		db.Sequences = append(db.Sequences, seq)
	}
	return db
}

// TestQuickMinerSoundness is the testing/quick form of the soundness
// invariant: every reported pattern is complete, valid, and has its
// support confirmed by independent recounting.
func TestQuickMinerSoundness(t *testing.T) {
	f := func(seqs [][6]uint8) bool {
		if len(seqs) == 0 {
			return true
		}
		if len(seqs) > 12 {
			seqs = seqs[:12]
		}
		db := quickDB(seqs)
		rs, _, err := core.MineTemporal(db, core.Options{MinCount: 2, KeepOccurrences: true})
		if err != nil {
			return false
		}
		enc, err := pattern.EncodeDatabase(db)
		if err != nil {
			return false
		}
		for _, r := range rs {
			if r.Pattern.Validate() != nil || !r.Pattern.Complete() {
				return false
			}
			if pattern.SupportAligned(enc, r.Pattern) != r.Support || r.Support < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(72))}); err != nil {
		t.Error(err)
	}
}

// TestQuickCoincidenceSoundness mirrors the soundness check for
// coincidence patterns.
func TestQuickCoincidenceSoundness(t *testing.T) {
	f := func(seqs [][6]uint8) bool {
		if len(seqs) == 0 {
			return true
		}
		if len(seqs) > 12 {
			seqs = seqs[:12]
		}
		db := quickDB(seqs)
		rs, _, err := core.MineCoincidence(db, core.Options{MinCount: 2})
		if err != nil {
			return false
		}
		enc, err := pattern.TransformDatabase(db)
		if err != nil {
			return false
		}
		for _, r := range rs {
			if r.Pattern.Validate() != nil {
				return false
			}
			if pattern.SupportCoinc(enc, r.Pattern) != r.Support || r.Support < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(73))}); err != nil {
		t.Error(err)
	}
}

// TestQuickThresholdMonotone: raising the threshold can only shrink the
// result set, and the smaller set is exactly the filtered larger one.
func TestQuickThresholdMonotone(t *testing.T) {
	f := func(seqs [][6]uint8) bool {
		if len(seqs) < 4 {
			return true
		}
		if len(seqs) > 10 {
			seqs = seqs[:10]
		}
		db := quickDB(seqs)
		lo, _, err := core.MineTemporal(db, core.Options{MinCount: 2})
		if err != nil {
			return false
		}
		hi, _, err := core.MineTemporal(db, core.Options{MinCount: 3})
		if err != nil {
			return false
		}
		want := lo[:0:0]
		for _, r := range lo {
			if r.Support >= 3 {
				want = append(want, r)
			}
		}
		return pattern.ResultsEqual(hi, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(74))}); err != nil {
		t.Error(err)
	}
}
