package server

import (
	"fmt"
	"testing"

	"tpminer/internal/interval"
)

// bigDB builds a database with seqs sequences of ivs intervals each.
func bigDB(seqs, ivs int) *interval.Database {
	db := &interval.Database{Sequences: make([]interval.Sequence, seqs)}
	for s := 0; s < seqs; s++ {
		seq := interval.Sequence{
			ID:        fmt.Sprintf("s%d", s),
			Intervals: make([]interval.Interval, ivs),
		}
		for i := 0; i < ivs; i++ {
			seq.Intervals[i] = interval.Interval{
				Symbol: fmt.Sprintf("S%d", i%4),
				Start:  int64(i * 2),
				End:    int64(i*2 + 3),
			}
		}
		db.Sequences[s] = seq
	}
	return db
}

// incrementFor returns a small, valid increment whose sequence IDs
// don't collide with bigDB's (round is salted in).
func incrementFor(round int) *interval.Database {
	return &interval.Database{Sequences: []interval.Sequence{{
		ID: fmt.Sprintf("inc%d", round),
		Intervals: []interval.Interval{
			{Symbol: "S0", Start: 0, End: 2},
			{Symbol: "S1", Start: 1, End: 3},
		},
	}}}
}

// TestAppendSharesBackingArrays proves append is a shallow copy of the
// sequence headers: the interval arrays of pre-existing sequences are
// the same backing arrays before and after, not clones.
func TestAppendSharesBackingArrays(t *testing.T) {
	st := newDatasetStore()
	base := bigDB(50, 20)
	if _, _, _, err := st.put("d", base); err != nil {
		t.Fatal(err)
	}
	before, _, _ := st.snapshot("d")

	if _, _, err := st.append("d", incrementFor(0), false); err != nil {
		t.Fatalf("append: %v", err)
	}
	grown, _, _ := st.snapshot("d")
	if len(grown.Sequences) != len(before.Sequences)+1 {
		t.Fatalf("grown has %d sequences, want %d", len(grown.Sequences), len(before.Sequences)+1)
	}
	for i := range before.Sequences {
		a, b := before.Sequences[i].Intervals, grown.Sequences[i].Intervals
		if len(a) == 0 {
			continue
		}
		if &a[0] != &b[0] {
			t.Fatalf("sequence %d intervals were cloned on append; want shared backing array", i)
		}
	}
}

// TestAppendCostIndependentOfDatasetSize is the scaling assertion in
// test form: the allocation bill for one append must not grow with the
// number of intervals already stored. A deep clone of a 200×500 dataset
// would allocate ~100k intervals (several MB); the shallow path copies
// only sequence headers.
func TestAppendCostIndependentOfDatasetSize(t *testing.T) {
	costOf := func(seqs, ivs int) float64 {
		st := newDatasetStore()
		if _, _, _, err := st.put("d", bigDB(seqs, ivs)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			// Each run grows the dataset by one 2-interval sequence; the
			// sequence-header copy grows a little, interval copying would
			// grow by seqs*ivs.
			if _, _, err := st.append("d", incrementFor(0), false); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := costOf(4, 4)     // 16 intervals
	large := costOf(200, 500) // 100 000 intervals
	// Allow generous headroom for map/slice growth noise; a deep clone
	// would be thousands of times over.
	if large > small*10+100 {
		t.Errorf("append allocations scale with dataset size: %v allocs on 16-interval base vs %v on 100k-interval base", small, large)
	}
}

// BenchmarkDatasetStoreAppend measures one append against bases of very
// different sizes. With copy-on-write sequence headers the per-op cost
// tracks the header count, never the stored interval count — compare
// size=10x10 with size=200x500 in the output.
func BenchmarkDatasetStoreAppend(b *testing.B) {
	for _, sz := range []struct{ seqs, ivs int }{
		{10, 10},
		{100, 100},
		{200, 500},
	} {
		b.Run(fmt.Sprintf("base=%dx%d", sz.seqs, sz.ivs), func(b *testing.B) {
			st := newDatasetStore()
			if _, _, _, err := st.put("d", bigDB(sz.seqs, sz.ivs)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := st.append("d", incrementFor(i), false); err != nil {
					b.Fatal(err)
				}
				if i%1000 == 999 {
					// Re-seed occasionally so the header slice doesn't grow
					// unboundedly and distort the base-size comparison.
					b.StopTimer()
					st = newDatasetStore()
					if _, _, _, err := st.put("d", bigDB(sz.seqs, sz.ivs)); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}
