package core_test

import (
	"math"
	"math/rand"
	"testing"

	"tpminer/internal/core"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
)

func mustMineT(t *testing.T, db *interval.Database, opt core.Options) []pattern.TemporalResult {
	t.Helper()
	rs, _, err := core.MineTemporal(db, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestOptionsValidation(t *testing.T) {
	db := interval.NewDatabase([]interval.Interval{{Symbol: "A", Start: 0, End: 1}})
	bad := []core.Options{
		{},                       // no threshold
		{MinSupport: -0.5},       // negative
		{MinSupport: 1.5},        // > 1
		{MinSupport: math.NaN()}, // fails every comparison
		{MinCount: -1},           // negative count
		{MinCount: 1, MaxSpan: -1},
		{MinCount: 1, Parallel: -2},
		{MinCount: 1, MaxElements: -1},
	}
	for i, opt := range bad {
		if _, _, err := core.MineTemporal(db, opt); err == nil {
			t.Errorf("case %d: MineTemporal accepted %+v", i, opt)
		}
		if _, _, err := core.MineCoincidence(db, opt); err == nil {
			t.Errorf("case %d: MineCoincidence accepted %+v", i, opt)
		}
		if c, err := core.ResolveMinCount(opt, db.Len()); err == nil {
			t.Errorf("case %d: ResolveMinCount accepted %+v, returning %d", i, opt, c)
		}
	}
}

func TestResolveMinCount(t *testing.T) {
	cases := []struct {
		opt  core.Options
		n    int
		want int
	}{
		{core.Options{MinSupport: 0.5}, 10, 5},
		{core.Options{MinSupport: 0.05}, 10, 1},
		{core.Options{MinSupport: 0.51}, 10, 6}, // ceil
		{core.Options{MinSupport: 1}, 10, 10},
		{core.Options{MinCount: 3, MinSupport: 0.9}, 10, 3}, // MinCount wins
		{core.Options{MinCount: 20}, 10, 20},
	}
	for _, c := range cases {
		got, err := core.ResolveMinCount(c.opt, c.n)
		if err != nil {
			t.Errorf("ResolveMinCount(%+v, %d): %v", c.opt, c.n, err)
			continue
		}
		if got != c.want {
			t.Errorf("ResolveMinCount(%+v, %d) = %d, want %d", c.opt, c.n, got, c.want)
		}
	}
}

func TestMineTemporalKnownTiny(t *testing.T) {
	// Three sequences, "A overlaps B" in two of them.
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}, {Symbol: "B", Start: 2, End: 6}},
		[]interval.Interval{{Symbol: "A", Start: 10, End: 20}, {Symbol: "B", Start: 15, End: 25}},
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}},
	)
	rs := mustMineT(t, db, core.Options{MinCount: 2})
	bySupport := make(map[string]int)
	for _, r := range rs {
		bySupport[r.Pattern.String()] = r.Support
	}
	if bySupport["A+ A-"] != 3 {
		t.Errorf("support(A) = %d, want 3 (all: %v)", bySupport["A+ A-"], rs)
	}
	if bySupport["B+ B-"] != 2 {
		t.Errorf("support(B) = %d, want 2", bySupport["B+ B-"])
	}
	if bySupport["A+ B+ A- B-"] != 2 {
		t.Errorf("support(A overlaps B) = %d, want 2", bySupport["A+ B+ A- B-"])
	}
	if len(rs) != 3 {
		t.Errorf("patterns = %d, want 3: %v", len(rs), rs)
	}
}

func TestMineCoincidenceKnownTiny(t *testing.T) {
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 4}, {Symbol: "B", Start: 2, End: 6}},
		[]interval.Interval{{Symbol: "A", Start: 10, End: 20}, {Symbol: "B", Start: 15, End: 25}},
	)
	rs, _, err := core.MineCoincidence(db, core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"{A}":           2,
		"{B}":           2,
		"{A B}":         2,
		"{A} {B}":       2,
		"{A} {A B}":     2,
		"{A B} {B}":     2,
		"{A} {A B} {B}": 2,
		// {A} also subset-matches the {A B} segment, so "{A} {A}" and
		// friends are legitimately frequent; a truly absent order:
		"{B} {A}": 0, // must NOT appear
	}
	got := make(map[string]int)
	for _, r := range rs {
		got[r.Pattern.String()] = r.Support
	}
	for k, v := range want {
		if v == 0 {
			if _, ok := got[k]; ok {
				t.Errorf("unexpected pattern %q", k)
			}
			continue
		}
		if got[k] != v {
			t.Errorf("support(%q) = %d, want %d", k, got[k], v)
		}
	}
}

func TestConstraintsShrinkResults(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := randomDB(rng, 12, 6, 3, 25)
	base := core.Options{MinCount: 2}
	full := mustMineT(t, db, base)
	fullKeys := make(map[string]int)
	for _, r := range full {
		fullKeys[r.Pattern.Key()] = r.Support
	}

	type check struct {
		name string
		opt  core.Options
		ok   func(p pattern.Temporal) bool
	}
	checks := []check{
		{"MaxIntervals=2", core.Options{MinCount: 2, MaxIntervals: 2},
			func(p pattern.Temporal) bool { return p.NumIntervals() <= 2 }},
		{"MaxElements=3", core.Options{MinCount: 2, MaxElements: 3},
			func(p pattern.Temporal) bool { return p.Len() <= 3 }},
		{"MaxItemsPerElement=1", core.Options{MinCount: 2, MaxItemsPerElement: 1},
			func(p pattern.Temporal) bool {
				for _, el := range p.Elements {
					if len(el) > 1 {
						return false
					}
				}
				return true
			}},
	}
	for _, c := range checks {
		rs := mustMineT(t, db, c.opt)
		if len(rs) > len(full) {
			t.Errorf("%s: constraint grew the result set", c.name)
		}
		for _, r := range rs {
			if !c.ok(r.Pattern) {
				t.Errorf("%s: pattern %v violates constraint", c.name, r.Pattern)
			}
			if sup, ok := fullKeys[r.Pattern.Key()]; !ok || sup != r.Support {
				t.Errorf("%s: pattern %v support %d inconsistent with unconstrained run (%d, present=%v)",
					c.name, r.Pattern, r.Support, sup, ok)
			}
		}
		// Completeness under the constraint: every unconstrained result
		// satisfying the predicate must be present.
		got := make(map[string]bool)
		for _, r := range rs {
			got[r.Pattern.Key()] = true
		}
		for _, r := range full {
			if c.ok(r.Pattern) && !got[r.Pattern.Key()] {
				t.Errorf("%s: missing %v", c.name, r.Pattern)
			}
		}
	}
}

func TestMaxSpanConstraint(t *testing.T) {
	// A before B, far apart in seq0, close in seq1.
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 100, End: 102}},
		[]interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 5, End: 7}},
	)
	// Unconstrained: A..B frequent with support 2.
	rs := mustMineT(t, db, core.Options{MinCount: 2})
	keys := map[string]int{}
	for _, r := range rs {
		keys[r.Pattern.String()] = r.Support
	}
	if keys["A+ A- B+ B-"] != 2 {
		t.Fatalf("unconstrained support = %d, want 2", keys["A+ A- B+ B-"])
	}
	// MaxSpan 10: only seq1's embedding fits; support drops below 2 and
	// the pattern disappears.
	rs = mustMineT(t, db, core.Options{MinCount: 2, MaxSpan: 10})
	for _, r := range rs {
		if r.Pattern.String() == "A+ A- B+ B-" {
			t.Errorf("span-violating pattern survived with support %d", r.Support)
		}
	}
	// With MinCount 1 it comes back, supported by the close embedding.
	rs = mustMineT(t, db, core.Options{MinCount: 1, MaxSpan: 10})
	found := false
	for _, r := range rs {
		if r.Pattern.String() == "A+ A- B+ B-" {
			found = true
			if r.Support != 1 {
				t.Errorf("span-constrained support = %d, want 1", r.Support)
			}
		}
	}
	if !found {
		t.Error("pattern with a fitting embedding missing under MaxSpan")
	}
}

// TestSupportsVerified: every mined pattern's reported support equals
// brute-force recounting, and support never falls below minCount.
func TestSupportsVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		db := randomDB(rng, 10, 6, 3, 25)
		opt := core.Options{MinCount: 3, KeepOccurrences: true}
		rs := mustMineT(t, db, opt)
		enc, err := pattern.EncodeDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if err := r.Pattern.Validate(); err != nil {
				t.Fatalf("invalid mined pattern %v: %v", r.Pattern, err)
			}
			if !r.Pattern.Complete() {
				t.Fatalf("incomplete mined pattern %v", r.Pattern)
			}
			if got := pattern.SupportAligned(enc, r.Pattern); got != r.Support {
				t.Fatalf("pattern %v: reported %d, recounted %d", r.Pattern, r.Support, got)
			}
			if r.Support < 3 {
				t.Fatalf("pattern %v below threshold: %d", r.Pattern, r.Support)
			}
		}
	}
}

// TestAntiMonotoneSupport: along every mined pattern, removing the last
// endpoint (canonical prefix) never decreases support.
func TestAntiMonotoneSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := randomDB(rng, 15, 6, 3, 25)
	rs := mustMineT(t, db, core.Options{MinCount: 2, KeepOccurrences: true})
	enc, err := pattern.EncodeDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		p := r.Pattern.Clone()
		sup := r.Support
		for p.Size() > 1 {
			last := len(p.Elements) - 1
			if len(p.Elements[last]) > 1 {
				p.Elements[last] = p.Elements[last][:len(p.Elements[last])-1]
			} else {
				p.Elements = p.Elements[:last]
			}
			prefixSup := pattern.SupportAligned(enc, p)
			if prefixSup < sup {
				t.Fatalf("anti-monotonicity violated: prefix %v has support %d < %d", p, prefixSup, sup)
			}
			sup = prefixSup
		}
	}
}

func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := randomDB(rng, 20, 6, 3, 25)
	_, st, err := core.MineTemporal(db, core.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sequences != 20 || st.MinCount != 2 {
		t.Errorf("header stats: %+v", st)
	}
	if st.Nodes == 0 || st.CandidateScans == 0 {
		t.Errorf("counters not collected: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Errorf("elapsed not set: %v", st.Elapsed)
	}

	// Disabling pair pruning must zero the PairPruned counter.
	_, st2, err := core.MineTemporal(db, core.Options{MinCount: 2, DisablePairPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.PairPruned != 0 {
		t.Errorf("PairPruned = %d with P2 disabled", st2.PairPruned)
	}
	// And the node count with all prunings off is at least as large.
	_, st3, err := core.MineTemporal(db, core.Options{
		MinCount: 2, DisableGlobalPruning: true, DisablePairPruning: true,
		DisablePostfixPruning: true, DisableSizePruning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st3.CandidateScans < st.CandidateScans {
		t.Errorf("unpruned scans %d < pruned scans %d", st3.CandidateScans, st.CandidateScans)
	}
}

func TestEmptyAndDegenerateDatabases(t *testing.T) {
	empty := &interval.Database{}
	rs, st, err := core.MineTemporal(empty, core.Options{MinCount: 1})
	if err != nil || len(rs) != 0 {
		t.Errorf("empty db: %v %v", rs, err)
	}
	if st.Sequences != 0 {
		t.Errorf("stats on empty db: %+v", st)
	}
	cr, _, err := core.MineCoincidence(empty, core.Options{MinCount: 1})
	if err != nil || len(cr) != 0 {
		t.Errorf("empty db coincidence: %v %v", cr, err)
	}

	// Sequences with no intervals are fine.
	db := interval.NewDatabase(nil, []interval.Interval{{Symbol: "A", Start: 0, End: 1}})
	rs = mustMineT(t, db, core.Options{MinCount: 1})
	if len(rs) != 1 || rs[0].Support != 1 {
		t.Errorf("degenerate db: %v", rs)
	}

	// Invalid data propagates an error.
	bad := interval.NewDatabase([]interval.Interval{{Symbol: "A", Start: 5, End: 0}})
	if _, _, err := core.MineTemporal(bad, core.Options{MinCount: 1}); err == nil {
		t.Error("invalid db accepted")
	}
	if _, _, err := core.MineCoincidence(bad, core.Options{MinCount: 1}); err == nil {
		t.Error("invalid db accepted by coincidence miner")
	}
}

func TestMinSupportOne(t *testing.T) {
	// MinSupport 1.0 keeps only patterns in every sequence.
	db := interval.NewDatabase(
		[]interval.Interval{{Symbol: "A", Start: 0, End: 2}, {Symbol: "B", Start: 5, End: 6}},
		[]interval.Interval{{Symbol: "A", Start: 0, End: 2}},
	)
	rs := mustMineT(t, db, core.Options{MinSupport: 1.0})
	if len(rs) != 1 || rs[0].Pattern.String() != "A+ A-" {
		t.Errorf("MinSupport=1: %v", rs)
	}
}

func TestKeepOccurrencesReporting(t *testing.T) {
	// Two sequences where the overlapping pair is occurrences 2 and 3.
	mk := func() []interval.Interval {
		return []interval.Interval{
			{Symbol: "A", Start: 0, End: 10},
			{Symbol: "A", Start: 20, End: 30},
			{Symbol: "A", Start: 25, End: 35},
		}
	}
	db := interval.NewDatabase(mk(), mk())
	raw := mustMineT(t, db, core.Options{MinCount: 2, KeepOccurrences: true})
	foundRaw := false
	for _, r := range raw {
		if r.Pattern.String() == "A.2+ A.3+ A.2- A.3-" {
			foundRaw = true
		}
	}
	if !foundRaw {
		t.Errorf("raw results missing occurrence-labelled overlap: %v", raw)
	}
	norm := mustMineT(t, db, core.Options{MinCount: 2})
	foundNorm := false
	for _, r := range norm {
		if r.Pattern.String() == "A+ A.2+ A- A.2-" && r.Support == 2 {
			foundNorm = true
		}
	}
	if !foundNorm {
		t.Errorf("normalized results missing merged overlap: %v", norm)
	}
}

func TestMaxGapConstraint(t *testing.T) {
	// A then B then C; the A→B gap is 50, the B→C gap is 5.
	db := interval.NewDatabase(
		[]interval.Interval{
			{Symbol: "A", Start: 0, End: 2},
			{Symbol: "B", Start: 52, End: 54},
			{Symbol: "C", Start: 59, End: 61},
		},
		[]interval.Interval{
			{Symbol: "A", Start: 0, End: 2},
			{Symbol: "B", Start: 52, End: 54},
			{Symbol: "C", Start: 59, End: 61},
		},
	)
	rs := mustMineT(t, db, core.Options{MinCount: 2, MaxGap: 10})
	keys := make(map[string]bool)
	for _, r := range rs {
		keys[r.Pattern.String()] = true
	}
	// B before C survives (every consecutive gap <= 10)...
	if !keys["B+ B- C+ C-"] {
		t.Errorf("B..C missing under MaxGap: %v", rs)
	}
	// ...but any pattern bridging the 50-unit A→B gap is gone.
	for _, bad := range []string{"A+ A- B+ B-", "A+ A- C+ C-", "A+ A- B+ B- C+ C-"} {
		if keys[bad] {
			t.Errorf("%q survived a 50-unit gap under MaxGap=10", bad)
		}
	}
	// Intra-interval gaps count too: A+ at 0 and A- at 2 is a gap of 2.
	if !keys["A+ A-"] {
		t.Errorf("single interval A missing: %v", rs)
	}
	// Unconstrained, the bridge patterns exist.
	rs = mustMineT(t, db, core.Options{MinCount: 2})
	found := false
	for _, r := range rs {
		if r.Pattern.String() == "A+ A- B+ B- C+ C-" {
			found = true
		}
	}
	if !found {
		t.Error("unconstrained mining lost the full chain")
	}
}
