package pattern

import (
	"math/rand"
	"testing"

	"tpminer/internal/endpoint"
	"tpminer/internal/interval"
)

func encode(t *testing.T, ivs ...interval.Interval) []endpoint.Slice {
	t.Helper()
	sl, err := endpoint.Encode(interval.Sequence{Intervals: ivs})
	if err != nil {
		t.Fatal(err)
	}
	return sl
}

func TestContainsAlignedBasic(t *testing.T) {
	// Sequence: A[0,4] overlaps B[2,6]; C[8,9] after both.
	seq := encode(t,
		interval.Interval{Symbol: "A", Start: 0, End: 4},
		interval.Interval{Symbol: "B", Start: 2, End: 6},
		interval.Interval{Symbol: "C", Start: 8, End: 9},
	)
	yes := []string{
		"A+ A-",
		"A+ B+ A- B-",
		"B+ B- C+ C-",
		"A+ B+ A- B- C+ C-",
		"A+ C+ C-", // incomplete prefixes also matchable
	}
	for _, s := range yes {
		p, err := ParseTemporal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !ContainsAligned(seq, p) {
			t.Errorf("ContainsAligned(%q) = false", s)
		}
	}
	no := []string{
		"B+ A+ A- B-",   // wrong arrangement (B during A)
		"(A+ B+) A- B-", // A and B do not co-start
		"A+ (A- B+) B-", // A does not meet B
		"C+ C- A+ A-",   // wrong order
		"A.2+ A.2-",     // no second A
		"A+ A- D+ D-",   // unknown symbol
		"(A+ B+ C+) A- B- C-",
	}
	for _, s := range no {
		p, err := ParseTemporal(s)
		if err != nil {
			t.Fatal(err)
		}
		if ContainsAligned(seq, p) {
			t.Errorf("ContainsAligned(%q) = true", s)
		}
	}
}

func TestContainsAlignedEmptyPattern(t *testing.T) {
	seq := encode(t, interval.Interval{Symbol: "A", Start: 0, End: 1})
	if ContainsAligned(seq, Temporal{}) {
		t.Error("empty pattern contained")
	}
}

func TestContainsAlignedOccurrenceSemantics(t *testing.T) {
	// Sequence has A.1[0,10], A.2[20,30], A.3[25,35].
	seq := encode(t,
		interval.Interval{Symbol: "A", Start: 0, End: 10},
		interval.Interval{Symbol: "A", Start: 20, End: 30},
		interval.Interval{Symbol: "A", Start: 25, End: 35},
	)
	// "A.2 overlaps A.3" holds.
	p, _ := ParseTemporal("A.2+ A.3+ A.2- A.3-")
	if !ContainsAligned(seq, p) {
		t.Error("occurrence-labelled overlap not found")
	}
	// But the dense labelling "A.1 overlaps A.2" does NOT hold (A.1 is
	// before A.2) — this is exactly the aligned-semantics subtlety the
	// raw search space covers and normalization merges.
	q, _ := ParseTemporal("A+ A.2+ A- A.2-")
	if ContainsAligned(seq, q) {
		t.Error("dense labelling should not match")
	}
	// Any-binding semantics does accept the normalized pattern.
	dbSeq := interval.Sequence{Intervals: []interval.Interval{
		{Symbol: "A", Start: 0, End: 10},
		{Symbol: "A", Start: 20, End: 30},
		{Symbol: "A", Start: 25, End: 35},
	}}
	if !ContainsAny(dbSeq, q) {
		t.Error("ContainsAny should find an overlapping A pair")
	}
}

func TestContainsAnyBasic(t *testing.T) {
	seq := interval.Sequence{Intervals: []interval.Interval{
		{Symbol: "A", Start: 0, End: 4},
		{Symbol: "B", Start: 2, End: 6},
	}}
	p, _ := ParseTemporal("A+ B+ A- B-")
	if !ContainsAny(seq, p) {
		t.Error("overlap not found")
	}
	q, _ := ParseTemporal("B+ B- A+ A-")
	if ContainsAny(seq, q) {
		t.Error("wrong order accepted")
	}
	// Incomplete patterns are rejected by ContainsAny.
	r := NewTemporal([]endpoint.Endpoint{ep("A+")})
	if ContainsAny(seq, r) {
		t.Error("incomplete pattern accepted")
	}
}

func TestContainsAnyInjective(t *testing.T) {
	// Pattern "A before A" needs two distinct A intervals.
	one := interval.Sequence{Intervals: []interval.Interval{
		{Symbol: "A", Start: 0, End: 4},
	}}
	p, _ := ParseTemporal("A+ A- A.2+ A.2-")
	if ContainsAny(one, p) {
		t.Error("single interval matched a two-instance pattern")
	}
	two := interval.Sequence{Intervals: []interval.Interval{
		{Symbol: "A", Start: 0, End: 4},
		{Symbol: "A", Start: 6, End: 9},
	}}
	if !ContainsAny(two, p) {
		t.Error("A before A not found")
	}
}

// TestAnyBindingGeneralizesAligned: whenever aligned containment holds,
// any-binding containment must hold too (for complete patterns).
func TestAnyBindingGeneralizesAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		seq := interval.Sequence{}
		for i := 0; i < 1+rng.Intn(6); i++ {
			start := rng.Int63n(20)
			seq.Intervals = append(seq.Intervals, interval.Interval{
				Symbol: string(rune('A' + rng.Intn(2))),
				Start:  start,
				End:    start + rng.Int63n(10),
			})
		}
		seq.Normalize()
		enc, err := endpoint.Encode(seq)
		if err != nil {
			t.Fatal(err)
		}
		// Build a random complete sub-pattern from a random subset of
		// the sequence's own intervals (guaranteed aligned-contained
		// only if occurrence indices stay dense... so test implication
		// with the full pattern of a subset re-encoded).
		var sub []interval.Interval
		for _, iv := range seq.Intervals {
			if rng.Intn(2) == 0 {
				sub = append(sub, iv)
			}
		}
		if len(sub) == 0 {
			continue
		}
		subSlices, err := endpoint.Encode(interval.Sequence{Intervals: sub})
		if err != nil {
			t.Fatal(err)
		}
		els := make([][]endpoint.Endpoint, len(subSlices))
		for i, sl := range subSlices {
			els[i] = sl.Points
		}
		p := NewTemporal(els...)
		if ContainsAligned(enc, p) && !ContainsAny(seq, p) {
			t.Fatalf("aligned holds but any-binding fails\nseq: %v\npattern: %v", seq.Intervals, p)
		}
		// A pattern built from the sequence's own intervals must always
		// be any-binding contained.
		if !ContainsAny(seq, p) {
			t.Fatalf("own sub-arrangement not contained\nseq: %v\nsub: %v\npattern: %v", seq.Intervals, sub, p)
		}
	}
}

func TestSupportCounting(t *testing.T) {
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}, {Symbol: "B", Start: 2, End: 6}},
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}},
		[]interval.Interval{{Symbol: "B", Start: 0, End: 4}, {Symbol: "A", Start: 2, End: 6}},
	)
	enc, err := EncodeDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := ParseTemporal("A+ A-")
	if got := SupportAligned(enc, p); got != 3 {
		t.Errorf("support(A) = %d, want 3", got)
	}
	q, _ := ParseTemporal("A+ B+ A- B-")
	if got := SupportAligned(enc, q); got != 1 {
		t.Errorf("support(A overlaps B) = %d, want 1", got)
	}
	if got := SupportAny(db, q); got != 1 {
		t.Errorf("SupportAny = %d, want 1", got)
	}
	ixs := BuildIndexes(enc)
	if got := SupportIndexed(ixs, q, 0, 0); got != 1 {
		t.Errorf("SupportIndexed = %d, want 1", got)
	}
}

// TestIndexContainsBounds pins the span and gap checks of the one
// support matcher: span runs from the first to the last element's time,
// gaps between consecutive elements only (an I-extension shares its
// element's time), and 0 disables either bound.
func TestIndexContainsBounds(t *testing.T) {
	// Slices at times 0, 3, 10, 12: A+, B+, A-, B-.
	ix := BuildIndex(encode(t,
		interval.Interval{Symbol: "A", Start: 0, End: 10},
		interval.Interval{Symbol: "B", Start: 3, End: 12},
	))
	p, err := ParseTemporal("A+ B+ A- B-")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		span, gap interval.Time
		want      bool
	}{
		{0, 0, true},
		{12, 0, true},  // span exactly 12
		{11, 0, false}, // span 12 > 11
		{0, 7, true},   // widest gap 3→10
		{0, 6, false},
		{12, 7, true},
		{12, 6, false},
	} {
		if got := ix.Contains(p, c.span, c.gap); got != c.want {
			t.Errorf("Contains(%v, span %d, gap %d) = %v, want %v", p, c.span, c.gap, got, c.want)
		}
	}
	// Endpoints sharing an element share its time: (A+ B+) (A- B-) over
	// [0,5] has one gap of 5 and a span of 5.
	q, err := ParseTemporal("(A+ B+) (A- B-)")
	if err != nil {
		t.Fatal(err)
	}
	co := BuildIndex(encode(t,
		interval.Interval{Symbol: "A", Start: 0, End: 5},
		interval.Interval{Symbol: "B", Start: 0, End: 5},
	))
	if !co.Contains(q, 5, 5) || co.Contains(q, 4, 0) || co.Contains(q, 0, 4) {
		t.Errorf("co-occurring pair: span and gap 5 must hold, 4 must fail")
	}
	if got := SupportIndexed([]Index{ix, co}, p, 12, 7); got != 1 {
		t.Errorf("SupportIndexed with bounds = %d, want 1", got)
	}
}

func TestEncodeDatabaseError(t *testing.T) {
	db := interval.NewDatabase([]interval.Interval{{Symbol: "", Start: 0, End: 1}})
	if _, err := EncodeDatabase(db); err == nil {
		t.Error("EncodeDatabase accepted invalid interval")
	}
}
